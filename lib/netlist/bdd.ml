type node = int

(* The unique table and the apply cache key on one int packing three
   fields: two node ids of [node_bits] each under a variable index or an
   operation id, 62 bits in all (63-bit OCaml ints).  An id that outgrows
   its field raises instead of letting two keys alias. *)
let node_bits = 26
let max_nodes = 1 lsl node_bits
let max_vars = 1 lsl (62 - (2 * node_bits))
let pack tag a b = (((tag lsl node_bits) lor a) lsl node_bits) lor b

(* [Hashtbl.hash] mixes every bit of the key; a plain multiplicative
   hash leaves the bucket index to the low field alone. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Nodes 0 and 1 are the terminals; every other node is a triple
   (variable, low child, high child) stored in growable arrays. *)
type manager = {
  mutable var_of : int array;
  mutable low : int array;
  mutable high : int array;
  mutable len : int;
  unique : node Tbl.t;
  apply_cache : node Tbl.t;
  count_cache : (node, float) Hashtbl.t;
}

let zero = 0
let one = 1

let manager () =
  let cap = 1024 in
  let m =
    {
      var_of = Array.make cap max_int;
      low = Array.make cap 0;
      high = Array.make cap 0;
      len = 2;
      unique = Tbl.create 4096;
      apply_cache = Tbl.create 4096;
      count_cache = Hashtbl.create 256;
    }
  in
  (* Terminals carry an out-of-range variable so they sort last. *)
  m.var_of.(0) <- max_int;
  m.var_of.(1) <- max_int;
  m

let grow m =
  let cap = Array.length m.var_of in
  if m.len = cap then begin
    let bigger_var = Array.make (2 * cap) max_int in
    let bigger_low = Array.make (2 * cap) 0 in
    let bigger_high = Array.make (2 * cap) 0 in
    Array.blit m.var_of 0 bigger_var 0 cap;
    Array.blit m.low 0 bigger_low 0 cap;
    Array.blit m.high 0 bigger_high 0 cap;
    m.var_of <- bigger_var;
    m.low <- bigger_low;
    m.high <- bigger_high
  end

(* Callers pass [v] below [max_vars] and children already in [m]. *)
let mk m v lo hi =
  if lo = hi then lo
  else begin
    let key = pack v lo hi in
    match Tbl.find m.unique key with
    | n -> n
    | exception Not_found ->
      let n = m.len in
      if n = max_nodes then
        invalid_arg
          (Printf.sprintf "Bdd: a manager holds at most %d nodes" max_nodes);
      grow m;
      m.var_of.(n) <- v;
      m.low.(n) <- lo;
      m.high.(n) <- hi;
      m.len <- n + 1;
      Tbl.add m.unique key n;
      n
  end

let var m i =
  if i < 0 || i >= max_vars then
    invalid_arg
      (Printf.sprintf "Bdd.var: index %d outside [0, %d)" i max_vars);
  mk m i zero one

let node_count m = m.len

(* Binary apply over an operation id (0=and, 1=or, 2=xor). *)
let rec apply m op a b =
  let terminal =
    match op with
    | 0 -> (
      match (a, b) with
      | 0, _ | _, 0 -> Some zero
      | 1, x | x, 1 -> Some x
      | _ -> if a = b then Some a else None)
    | 1 -> (
      match (a, b) with
      | 1, _ | _, 1 -> Some one
      | 0, x | x, 0 -> Some x
      | _ -> if a = b then Some a else None)
    | _ -> (
      match (a, b) with
      | 0, x | x, 0 -> Some x
      | _ -> if a = b then Some zero else None)
  in
  match terminal with
  | Some r -> r
  | None ->
    (* Normalise commutative argument order for the cache. *)
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = pack op a b in
    (match Tbl.find_opt m.apply_cache key with
    | Some r -> r
    | None ->
      let va = m.var_of.(a) and vb = m.var_of.(b) in
      let v = min va vb in
      let a_lo, a_hi = if va = v then (m.low.(a), m.high.(a)) else (a, a) in
      let b_lo, b_hi = if vb = v then (m.low.(b), m.high.(b)) else (b, b) in
      let lo = apply m op a_lo b_lo in
      let hi = apply m op a_hi b_hi in
      let r = mk m v lo hi in
      Tbl.add m.apply_cache key r;
      r)

let and_ m a b = apply m 0 a b
let or_ m a b = apply m 1 a b
let xor_ m a b = apply m 2 a b

(* NOT via XOR with the constant-1 function keeps a single cache. *)
let not_ m a = xor_ m a one

(* Shannon expansion bottom-up over one array of 2^vars sub-BDDs: after
   level [v], [a.(i)] is the function of the variables [v..vars-1] with
   the lower bits of the index fixed at [i]. *)
let of_table m ~vars f =
  if vars < 0 || vars >= Sys.int_size - 1 || 1 lsl vars > Sys.max_array_length
  then invalid_arg "Bdd.of_table: 2^vars entries do not fit an array";
  let a = Array.init (1 lsl vars) (fun i -> if f i then one else zero) in
  for v = vars - 1 downto 0 do
    let half = 1 lsl v in
    for i = 0 to half - 1 do
      a.(i) <- mk m v a.(i) a.(i + half)
    done
  done;
  a.(0)

let of_circuit m c =
  let values = Array.make (Circuit.node_count c) zero in
  let next_input = ref 0 in
  Circuit.iter_gates c (fun i g ->
      values.(i) <-
        (match g with
        | Gate.Input _ ->
          let v = var m !next_input in
          incr next_input;
          v
        | Gate.Const true -> one
        | Gate.Const false -> zero
        | Gate.Buf a -> values.(a)
        | Gate.Not a -> not_ m values.(a)
        | Gate.And2 (a, b) -> and_ m values.(a) values.(b)
        | Gate.Or2 (a, b) -> or_ m values.(a) values.(b)
        | Gate.Xor2 (a, b) -> xor_ m values.(a) values.(b)
        | Gate.Nand2 (a, b) -> not_ m (and_ m values.(a) values.(b))
        | Gate.Nor2 (a, b) -> not_ m (or_ m values.(a) values.(b))
        | Gate.Xnor2 (a, b) -> not_ m (xor_ m values.(a) values.(b))));
  List.map
    (fun (label, s) -> (label, values.(Circuit.index s)))
    (Circuit.outputs c)

let equivalent a b =
  if Circuit.input_count a <> Circuit.input_count b then
    invalid_arg "Bdd.equivalent: input counts differ";
  let labels c = List.map fst (Circuit.outputs c) in
  if List.sort compare (labels a) <> List.sort compare (labels b) then
    invalid_arg "Bdd.equivalent: output labels differ";
  let m = manager () in
  let fa = of_circuit m a and fb = of_circuit m b in
  List.for_all
    (fun (label, na) -> List.assoc label fb = na)
    fa

(* Satisfying assignments: weight each edge skip by the number of
   variables jumped over. *)
let satisfy_count m ~vars root =
  if vars <= 0 then invalid_arg "Bdd.satisfy_count: vars must be positive";
  Hashtbl.reset m.count_cache;
  (* count n = satisfying assignments of the sub-BDD over the variables
     strictly below var(n)'s level... handled via explicit level calc. *)
  let level n = if n < 2 then vars else m.var_of.(n) in
  let rec count n =
    if n = zero then 0.
    else if n = one then 1.
    else
      match Hashtbl.find_opt m.count_cache n with
      | Some c -> c
      | None ->
        let lo = count m.low.(n) and hi = count m.high.(n) in
        let scale child =
          2. ** float_of_int (level child - level n - 1)
        in
        let c = (lo *. scale m.low.(n)) +. (hi *. scale m.high.(n)) in
        Hashtbl.add m.count_cache n c;
        c
  in
  count root *. (2. ** float_of_int (level root))

let probability_one m ~vars root =
  satisfy_count m ~vars root /. (2. ** float_of_int vars)
