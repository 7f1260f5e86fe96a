type signal = int

type t = {
  circuit_name : string;
  mutable nodes : Gate.t array;
  mutable len : int;
  mutable inputs_rev : (string * signal) list;
  mutable outputs_rev : (string * signal) list;
  cse : (Gate.t, signal) Hashtbl.t;
}

let create ?(name = "circuit") () =
  {
    circuit_name = name;
    nodes = Array.make 64 (Gate.Const false);
    len = 0;
    inputs_rev = [];
    outputs_rev = [];
    cse = Hashtbl.create 1024;
  }

let name c = c.circuit_name

let append c g =
  if c.len = Array.length c.nodes then begin
    let bigger = Array.make (2 * c.len) (Gate.Const false) in
    Array.blit c.nodes 0 bigger 0 c.len;
    c.nodes <- bigger
  end;
  c.nodes.(c.len) <- g;
  c.len <- c.len + 1;
  c.len - 1

(* Structural hashing: inputs are never shared, everything else is. *)
let intern c g =
  match Hashtbl.find_opt c.cse g with
  | Some s -> s
  | None ->
    let s = append c g in
    Hashtbl.add c.cse g s;
    s

let input c label =
  let s = append c (Gate.Input label) in
  c.inputs_rev <- (label, s) :: c.inputs_rev;
  s

let const c b = intern c (Gate.Const b)

let gate_at c i =
  if i < 0 || i >= c.len then invalid_arg "Circuit.gate_at: out of range";
  c.nodes.(i)

let const_value c s =
  match gate_at c s with Gate.Const b -> Some b | _ -> None

let buf_ c s =
  ignore (gate_at c s);
  intern c (Gate.Buf s)

let not_ c a =
  match gate_at c a with
  | Gate.Const b -> const c (not b)
  | Gate.Not x -> x
  | _ -> intern c (Gate.Not a)

(* Normalise commutative fan-in order so that hashing catches (a,b)/(b,a). *)
let ordered (a : signal) b = if a <= b then (a, b) else (b, a)

let and_ c a b =
  let a, b = ordered a b in
  match (const_value c a, const_value c b) with
  | Some false, _ | _, Some false -> const c false
  | Some true, _ -> b
  | _, Some true -> a
  | None, None -> if a = b then a else intern c (Gate.And2 (a, b))

let or_ c a b =
  let a, b = ordered a b in
  match (const_value c a, const_value c b) with
  | Some true, _ | _, Some true -> const c true
  | Some false, _ -> b
  | _, Some false -> a
  | None, None -> if a = b then a else intern c (Gate.Or2 (a, b))

let xor_ c a b =
  let a, b = ordered a b in
  match (const_value c a, const_value c b) with
  | Some x, Some y -> const c (x <> y)
  | Some false, _ -> b
  | _, Some false -> a
  | Some true, _ -> not_ c b
  | _, Some true -> not_ c a
  | None, None -> if a = b then const c false else intern c (Gate.Xor2 (a, b))

let nand_ c a b = not_ c (and_ c a b)
let nor_ c a b = not_ c (or_ c a b)
let xnor_ c a b = not_ c (xor_ c a b)

let mux c ~sel t e =
  (* sel ? t : e  =  (sel AND t) OR (NOT sel AND e) *)
  or_ c (and_ c sel t) (and_ c (not_ c sel) e)

let output c label s =
  ignore (gate_at c s);
  if List.mem_assoc label c.outputs_rev then
    invalid_arg ("Circuit.output: duplicate label " ^ label);
  c.outputs_rev <- (label, s) :: c.outputs_rev

let node_count c = c.len

let gate_count c =
  let n = ref 0 in
  for i = 0 to c.len - 1 do
    match c.nodes.(i) with
    | Gate.Input _ | Gate.Const _ | Gate.Buf _ -> ()
    | Gate.Not _ | Gate.And2 _ | Gate.Or2 _ | Gate.Xor2 _ | Gate.Nand2 _
    | Gate.Nor2 _ | Gate.Xnor2 _ ->
      incr n
  done;
  !n

let inputs c = List.rev c.inputs_rev
let outputs c = List.rev c.outputs_rev
let input_count c = List.length c.inputs_rev
let output_count c = List.length c.outputs_rev
let index s = s

let signal_of_index c i =
  if i < 0 || i >= c.len then
    invalid_arg "Circuit.signal_of_index: out of range";
  i

let iter_gates c f =
  for i = 0 to c.len - 1 do
    f i c.nodes.(i)
  done

let levelize c =
  let levels = Array.make c.len 0 in
  iter_gates c (fun i g ->
      let deepest =
        List.fold_left (fun acc j -> Int.max acc levels.(j)) (-1) (Gate.fanin g)
      in
      levels.(i) <- (if deepest < 0 then 0 else deepest + 1));
  levels
