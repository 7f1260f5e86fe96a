type node = int

(* The unique table and the computed table key on one int packing three
   fields: two node ids of [node_bits] each under a variable index or an
   operation id, 62 bits in all (63-bit OCaml ints).  An id that outgrows
   its field raises instead of letting two keys alias. *)
let node_bits = 26
let max_nodes = 1 lsl node_bits
let max_vars = 1 lsl (62 - (2 * node_bits))
let pack tag a b = (((tag lsl node_bits) lor a) lsl node_bits) lor b

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant depend on every bit of the key. *)
let hash key bits = (key * 0x2545F4914F6CDD1D) lsr (Sys.int_size - bits)

(* No packed key is negative. *)
let empty = -1

(* Nodes 0 and 1 are the terminals; every other node is a triple
   (variable, low child, high child) in three growable int arrays.  Both
   tables are flat int arrays of (key, node) pairs, 2^bits pairs each:
   [unique] is open-addressed with linear probing and at most half full,
   so it holds every node exactly once; [computed] is direct-mapped and
   lossy, so a collision overwrites the older entry and costs only a
   recomputation.  Both start small and double with the node count; the
   computed table keeps a quarter of the unique table's slots, which
   measured faster than larger (fewer cache misses) on the multipliers. *)
type manager = {
  mutable var_of : int array;
  mutable low : int array;
  mutable high : int array;
  mutable len : int;
  mutable unique : int array;
  mutable unique_bits : int;
  mutable computed : int array;
  mutable computed_bits : int;
}

let zero = 0
let one = 1
let initial_nodes = 1024

let manager () =
  let unique_bits = 11 and computed_bits = 9 in
  {
    (* Terminals carry an out-of-range variable so they sort last. *)
    var_of = Array.make initial_nodes max_int;
    low = Array.make initial_nodes 0;
    high = Array.make initial_nodes 0;
    len = 2;
    unique = Array.make (2 lsl unique_bits) empty;
    unique_bits;
    computed = Array.make (2 lsl computed_bits) empty;
    computed_bits;
  }

let double_nodes m =
  let cap = Array.length m.var_of in
  let widen a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  m.var_of <- widen m.var_of max_int;
  m.low <- widen m.low 0;
  m.high <- widen m.high 0

(* Free slot of [key] in an open-addressed table known not to hold it. *)
let free_slot table bits key =
  let mask = (1 lsl bits) - 1 in
  let slot = ref (hash key bits) in
  while table.(2 * !slot) <> empty do
    slot := (!slot + 1) land mask
  done;
  !slot

(* [old]'s pairs in a table of 2^bits pairs, each at the slot [place]
   picks for its key. *)
let rehash old bits place =
  let table = Array.make (2 lsl bits) empty in
  for s = 0 to (Array.length old / 2) - 1 do
    let key = old.(2 * s) in
    if key <> empty then begin
      let slot = place table bits key in
      table.(2 * slot) <- key;
      table.((2 * slot) + 1) <- old.((2 * s) + 1)
    end
  done;
  table

let double_unique m =
  m.unique_bits <- m.unique_bits + 1;
  m.unique <- rehash m.unique m.unique_bits free_slot

(* Lossy: entries that collide in the doubled table keep the later one. *)
let double_computed m =
  m.computed_bits <- m.computed_bits + 1;
  m.computed <- rehash m.computed m.computed_bits (fun _ bits key -> hash key bits)

let add_node m key v lo hi slot =
  let n = m.len in
  if n = max_nodes then
    invalid_arg
      (Printf.sprintf "Bdd: a manager holds at most %d nodes" max_nodes);
  if n = Array.length m.var_of then double_nodes m;
  m.var_of.(n) <- v;
  m.low.(n) <- lo;
  m.high.(n) <- hi;
  m.len <- n + 1;
  m.unique.(2 * slot) <- key;
  m.unique.((2 * slot) + 1) <- n;
  if 2 * m.len > 1 lsl m.unique_bits then double_unique m;
  if m.computed_bits < m.unique_bits - 2 then double_computed m;
  n

(* Callers pass [v] below [max_vars] and children already in [m]. *)
let mk m v lo hi =
  if lo = hi then lo
  else begin
    let key = pack v lo hi in
    let table = m.unique in
    let mask = (1 lsl m.unique_bits) - 1 in
    let slot = ref (hash key m.unique_bits) in
    while table.(2 * !slot) <> key && table.(2 * !slot) <> empty do
      slot := (!slot + 1) land mask
    done;
    if table.(2 * !slot) = key then table.((2 * !slot) + 1)
    else add_node m key v lo hi !slot
  end

let var m i =
  if i < 0 || i >= max_vars then
    invalid_arg
      (Printf.sprintf "Bdd.var: index %d outside [0, %d)" i max_vars);
  mk m i zero one

let node_count m = m.len

(* Binary apply over an operation id. *)
let op_and = 0
let op_or = 1
let op_xor = 2

let rec apply m op a b =
  if op = op_and then
    if a = zero || b = zero then zero
    else if a = one then b
    else if b = one || a = b then a
    else apply_cached m op a b
  else if op = op_or then
    if a = one || b = one then one
    else if a = zero then b
    else if b = zero || a = b then a
    else apply_cached m op a b
  else if a = zero then b
  else if b = zero then a
  else if a = b then zero
  else apply_cached m op a b

and apply_cached m op a b =
  (* Commutative operations: one cache key for (a, b) and (b, a). *)
  let x = Int.min a b and y = Int.max a b in
  let key = pack op x y in
  let slot = 2 * hash key m.computed_bits in
  if m.computed.(slot) = key then m.computed.(slot + 1)
  else begin
    let vx = m.var_of.(x) and vy = m.var_of.(y) in
    let v = Int.min vx vy in
    let x_lo = if vx = v then m.low.(x) else x in
    let x_hi = if vx = v then m.high.(x) else x in
    let y_lo = if vy = v then m.low.(y) else y in
    let y_hi = if vy = v then m.high.(y) else y in
    let lo = apply m op x_lo y_lo in
    let hi = apply m op x_hi y_hi in
    let r = mk m v lo hi in
    (* The recursion may have doubled the table. *)
    let slot = 2 * hash key m.computed_bits in
    m.computed.(slot) <- key;
    m.computed.(slot + 1) <- r;
    r
  end

let and_ m a b = apply m op_and a b
let or_ m a b = apply m op_or a b
let xor_ m a b = apply m op_xor a b

(* NOT via XOR with the constant-1 function keeps a single cache. *)
let not_ m a = xor_ m a one

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
  let labels c = List.sort String.compare (List.map fst (Circuit.outputs c)) in
  if not (List.equal String.equal (labels a) (labels b)) then
    invalid_arg "Bdd.equivalent: output labels differ";
  let m = manager () in
  let fa = of_circuit m a and fb = of_circuit m b in
  List.for_all (fun (label, na) -> Int.equal (List.assoc label fb) na) fa

(* Satisfying assignments: weight each edge skip by the number of
   variables jumped over.  [memo.(n)] is the count of the sub-BDD at [n]
   over the variables from var(n) down, or -1 until computed. *)
let satisfy_count m ~vars root =
  if vars <= 0 then invalid_arg "Bdd.satisfy_count: vars must be positive";
  let memo = Array.make m.len (-1.) in
  let level n = if n < 2 then vars else m.var_of.(n) in
  let rec count n =
    if n = zero then 0.
    else if n = one then 1.
    else if memo.(n) >= 0. then memo.(n)
    else begin
      let lo = count m.low.(n) and hi = count m.high.(n) in
      let scale child = 2. ** float_of_int (level child - level n - 1) in
      let c = (lo *. scale m.low.(n)) +. (hi *. scale m.high.(n)) in
      memo.(n) <- c;
      c
    end
  in
  count root *. (2. ** float_of_int (level root))

let probability_one m ~vars root =
  satisfy_count m ~vars root /. (2. ** float_of_int vars)
