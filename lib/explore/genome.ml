module Circuit = Ax_netlist.Circuit
module Gate = Ax_netlist.Gate
module Opt = Ax_netlist.Opt
module Multipliers = Ax_netlist.Multipliers
module Rng = Ax_tensor.Rng

type op = Buf | Not | And2 | Or2 | Xor2 | Nand2 | Nor2 | Xnor2

type gene =
  | Input of string
  | Const of bool
  | Gate of { op : op; a : int; b : int }

type t = {
  name : string;
  width_a : int;
  width_b : int;
  product_bits : int;
  signed : bool;
  genes : gene array;
  outputs : (string * int) array;
}

let of_multiplier (m : Multipliers.t) =
  let c = m.Multipliers.circuit in
  let genes = Array.make (Circuit.node_count c) (Const false) in
  Circuit.iter_gates c (fun i g ->
      genes.(i) <-
        (match g with
        | Gate.Input label -> Input label
        | Gate.Const b -> Const b
        | Gate.Buf a -> Gate { op = Buf; a; b = a }
        | Gate.Not a -> Gate { op = Not; a; b = a }
        | Gate.And2 (a, b) -> Gate { op = And2; a; b }
        | Gate.Or2 (a, b) -> Gate { op = Or2; a; b }
        | Gate.Xor2 (a, b) -> Gate { op = Xor2; a; b }
        | Gate.Nand2 (a, b) -> Gate { op = Nand2; a; b }
        | Gate.Nor2 (a, b) -> Gate { op = Nor2; a; b }
        | Gate.Xnor2 (a, b) -> Gate { op = Xnor2; a; b }));
  let outputs =
    Array.of_list
      (List.map
         (fun (label, s) -> (label, Circuit.index s))
         (Circuit.outputs c))
  in
  {
    name = Circuit.name c;
    width_a = m.Multipliers.width_a;
    width_b = m.Multipliers.width_b;
    product_bits = m.Multipliers.product_bits;
    signed = m.Multipliers.signed;
    genes;
    outputs;
  }

let to_circuit ?name g =
  let c = Circuit.create ~name:(Option.value ~default:g.name name) () in
  let map = Array.make (Array.length g.genes) None in
  let resolve i =
    match map.(i) with
    | Some s -> s
    | None -> invalid_arg "Genome.to_circuit: gene reads an undefined fan-in"
  in
  Array.iteri
    (fun i gene ->
      let s =
        match gene with
        | Input label -> Circuit.input c label
        | Const b -> Circuit.const c b
        | Gate { op; a; b } -> (
          if a >= i || b >= i || a < 0 || b < 0 then
            invalid_arg "Genome.to_circuit: fan-in not strictly below gene";
          let sa = resolve a in
          match op with
          | Buf -> Circuit.buf_ c sa
          | Not -> Circuit.not_ c sa
          | And2 -> Circuit.and_ c sa (resolve b)
          | Or2 -> Circuit.or_ c sa (resolve b)
          | Xor2 -> Circuit.xor_ c sa (resolve b)
          | Nand2 -> Circuit.nand_ c sa (resolve b)
          | Nor2 -> Circuit.nor_ c sa (resolve b)
          | Xnor2 -> Circuit.xnor_ c sa (resolve b))
      in
      map.(i) <- Some s)
    g.genes;
  Array.iter
    (fun (label, idx) -> Circuit.output c label (resolve idx))
    g.outputs;
  c

let to_multiplier ?name g =
  {
    Multipliers.circuit = Opt.strip_dead (to_circuit ?name g);
    width_a = g.width_a;
    width_b = g.width_b;
    product_bits = g.product_bits;
    signed = g.signed;
  }

let all_ops = [| Buf; Not; And2; Or2; Xor2; Nand2; Nor2; Xnor2 |]

let mutate ~rng ?(operations = 1) g =
  let genes = Array.copy g.genes in
  (* Mutation targets are fixed up front: a gene const-folded by an
     earlier edit of the same call stays selectable but the edit then
     degenerates to re-folding it, which keeps the operation count an
     upper bound rather than a promise. *)
  let targets =
    Array.of_list
      (List.filter
         (fun i -> match genes.(i) with Gate _ -> true | _ -> false)
         (List.init (Array.length genes) Fun.id))
  in
  if Array.length targets > 0 then
    for _ = 1 to Int.max 0 operations do
      let i = targets.(Rng.int rng (Array.length targets)) in
      match Rng.int rng 3 with
      | 0 -> (
        (* gate substitution *)
        match genes.(i) with
        | Gate { a; b; _ } ->
          genes.(i) <-
            Gate { op = all_ops.(Rng.int rng (Array.length all_ops)); a; b }
        | Input _ | Const _ -> genes.(i) <- Const (Rng.bool rng))
      | 1 -> (
        (* fan-in rewire; gates always sit above index 0, so the draw
           below is over a non-empty range *)
        match genes.(i) with
        | Gate { op; a; b } ->
          let target = Rng.int rng i in
          genes.(i) <-
            (if Rng.bool rng then Gate { op; a = target; b }
             else Gate { op; a; b = target })
        | Input _ | Const _ -> genes.(i) <- Const (Rng.bool rng))
      | _ -> genes.(i) <- Const (Rng.bool rng)
    done;
  { g with genes }

let valid g =
  let n = Array.length g.genes in
  let genes_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun i gene ->
           match gene with
           | Input _ | Const _ -> true
           | Gate { a; b; _ } -> a >= 0 && a < i && b >= 0 && b < i)
         g.genes)
  in
  let inputs =
    Array.fold_left
      (fun acc gene -> match gene with Input _ -> acc + 1 | _ -> acc)
      0 g.genes
  in
  let labels = Array.to_list (Array.map fst g.outputs) in
  let outputs_ok =
    Array.for_all (fun (_, idx) -> idx >= 0 && idx < n) g.outputs
    && List.length (List.sort_uniq String.compare labels) = List.length labels
  in
  genes_ok && outputs_ok && inputs = g.width_a + g.width_b
