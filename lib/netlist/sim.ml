let eval c ins =
  let expected = Circuit.input_count c in
  if Array.length ins <> expected then
    invalid_arg
      (Printf.sprintf "Sim.eval: %d inputs given, circuit has %d"
         (Array.length ins) expected);
  let values = Array.make (Circuit.node_count c) false in
  let next_input = ref 0 in
  Circuit.iter_gates c (fun i g ->
      match g with
      | Gate.Input _ ->
        values.(i) <- ins.(!next_input);
        incr next_input
      | g -> values.(i) <- Gate.eval g (fun j -> values.(j)));
  let outs = Circuit.outputs c in
  Array.of_list (List.map (fun (_, s) -> values.(Circuit.index s)) outs)

let eval_unsigned c ~input_bits x =
  let total = List.fold_left ( + ) 0 input_bits in
  if total <> Circuit.input_count c then
    invalid_arg "Sim.eval_unsigned: input_bits do not cover the inputs";
  let ins = Array.make total false in
  for bit = 0 to total - 1 do
    ins.(bit) <- (x lsr bit) land 1 = 1
  done;
  let outs = eval c ins in
  let acc = ref 0 in
  Array.iteri (fun bit b -> if b then acc := !acc lor (1 lsl bit)) outs;
  !acc

(* --- the bit-parallel sweep --- *)

let lanes = 32
let all_lanes = (1 lsl lanes) - 1
let exhaustive_inputs_limit = 20

type sweep = { patterns : int; ones : int array; table : int array }

(* The circuit compiled into flat arrays: an opcode per node and its
   fan-in indices ([fa] is the input ordinal of an [Input] node).  The
   opcodes are constant constructors, so [ops] is an array of immediates
   and the evaluation loop a jump table. *)
type op = In | Zero | One | Buf | Not | And | Or | Xor | Nand | Nor | Xnor

type compiled = {
  ops : op array;
  fa : int array;
  fb : int array;
  inputs : int;
  outs : int array;
}

let compile c =
  let n = Circuit.node_count c in
  let ops = Array.make n Zero in
  let fa = Array.make n 0 and fb = Array.make n 0 in
  let next_input = ref 0 in
  let set i op a b =
    ops.(i) <- op;
    fa.(i) <- a;
    fb.(i) <- b
  in
  let gate i op a b =
    if a < 0 || a >= i || b < 0 || b >= i then
      invalid_arg (Printf.sprintf "Sim: node %d reads a node not below it" i);
    set i op a b
  in
  Circuit.iter_gates c (fun i g ->
      match g with
      | Gate.Input _ ->
        set i In !next_input 0;
        incr next_input
      | Gate.Const b -> set i (if b then One else Zero) 0 0
      | Gate.Buf a -> gate i Buf a a
      | Gate.Not a -> gate i Not a a
      | Gate.And2 (a, b) -> gate i And a b
      | Gate.Or2 (a, b) -> gate i Or a b
      | Gate.Xor2 (a, b) -> gate i Xor a b
      | Gate.Nand2 (a, b) -> gate i Nand a b
      | Gate.Nor2 (a, b) -> gate i Nor a b
      | Gate.Xnor2 (a, b) -> gate i Xnor a b);
  let outs =
    Array.of_list (List.map (fun (_, s) -> Circuit.index s) (Circuit.outputs c))
  in
  { ops; fa; fb; inputs = !next_input; outs }

(* One pass over [words] words of [lanes] patterns.  [input_word w o] is
   input [o]'s word for word [w]; [valid w] the number of live lanes of
   word [w]; [record w values mask] sees every word's node values.  The
   node loop evaluates a gate and adds its word's popcount (SWAR, on the
   low 32 bits) in one step.  Its unchecked reads are in bounds because
   [compile] admits only fan-ins below the reading node and input
   ordinals below [inputs]. *)
let run cc ~words ~input_word ~valid ~record =
  let { ops; fa; fb; inputs; _ } = cc in
  let n = Array.length ops in
  let v = Array.make n 0 and ones = Array.make n 0 in
  let ins = Array.make inputs 0 in
  for w = 0 to words - 1 do
    for o = 0 to inputs - 1 do
      ins.(o) <- input_word w o land all_lanes
    done;
    let live = valid w in
    let mask = if live >= lanes then all_lanes else (1 lsl live) - 1 in
    for i = 0 to n - 1 do
      let a = Array.unsafe_get fa i and b = Array.unsafe_get fb i in
      let x =
        match Array.unsafe_get ops i with
        | In -> Array.unsafe_get ins a
        | Zero -> 0
        | One -> all_lanes
        | Buf -> Array.unsafe_get v a
        | Not -> Array.unsafe_get v a lxor all_lanes
        | And -> Array.unsafe_get v a land Array.unsafe_get v b
        | Or -> Array.unsafe_get v a lor Array.unsafe_get v b
        | Xor -> Array.unsafe_get v a lxor Array.unsafe_get v b
        | Nand -> Array.unsafe_get v a land Array.unsafe_get v b lxor all_lanes
        | Nor -> Array.unsafe_get v a lor Array.unsafe_get v b lxor all_lanes
        | Xnor -> Array.unsafe_get v a lxor Array.unsafe_get v b lxor all_lanes
      in
      Array.unsafe_set v i x;
      let x = x land mask in
      let x = x - ((x lsr 1) land 0x55555555) in
      let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
      let x = (x + (x lsr 4)) land 0x0F0F0F0F in
      Array.unsafe_set ones i (Array.unsafe_get ones i + ((x * 0x01010101) lsr 24 land 0xff))
    done;
    record w v mask
  done;
  ones

(* In place: row [r] of the 32 x 32 bit matrix [a] becomes its column
   [r] (bit [c] of row [r] goes to bit [r] of row [c]), by swapping
   ever smaller blocks across the diagonal. *)
let transpose32 a =
  let j = ref 16 and m = ref 0x0000FFFF in
  while !j > 0 do
    let jj = !j and mm = !m in
    let k = ref 0 in
    while !k < 32 do
      let t = ((a.(!k) lsr jj) lxor a.(!k + jj)) land mm in
      a.(!k + jj) <- a.(!k + jj) lxor t;
      a.(!k) <- a.(!k) lxor (t lsl jj);
      k := ((!k lor jj) + 1) land lnot jj
    done;
    j := jj lsr 1;
    m := mm lxor (mm lsl (jj lsr 1))
  done

(* Pattern p = w * lanes + l binds input o to bit o of p: inputs below
   log2 lanes alternate inside a word, the others are constant over it. *)
let lane_patterns = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

let no_record _ _ _ = ()

let exhaustive ?(table = true) c =
  let inputs = Circuit.input_count c in
  if inputs > exhaustive_inputs_limit then
    invalid_arg
      (Printf.sprintf
         "Sim.exhaustive: %d inputs exceed the %d-input exhaustive-sweep limit"
         inputs exhaustive_inputs_limit);
  let cc = compile c in
  let outs = cc.outs in
  if table && Array.length outs > lanes then
    invalid_arg
      (Printf.sprintf "Sim.exhaustive: %d outputs exceed the %d-output limit"
         (Array.length outs) lanes);
  let patterns = 1 lsl inputs in
  let words = (patterns + lanes - 1) / lanes in
  let input_word w o =
    if o < Array.length lane_patterns then lane_patterns.(o)
    else if (w lsr (o - Array.length lane_patterns)) land 1 = 1 then all_lanes
    else 0
  in
  let valid w = patterns - (w * lanes) in
  if not table then
    { patterns; ones = run cc ~words ~input_word ~valid ~record:no_record;
      table = [||] }
  else begin
    let entries = Array.make patterns 0 in
    (* The output words are the rows of a bit matrix; transposed, row [l]
       is lane [l]'s table entry. *)
    let rows = Array.make lanes 0 in
    let record w v mask =
      let base = w * lanes in
      for k = 0 to lanes - 1 do
        rows.(k) <- (if k < Array.length outs then v.(outs.(k)) land mask else 0)
      done;
      transpose32 rows;
      Array.blit rows 0 entries base (Int.min lanes (patterns - base))
    in
    let ones = run cc ~words ~input_word ~valid ~record in
    { patterns; ones; table = entries }
  end

let sampled c ~words input_word =
  if words <= 0 then invalid_arg "Sim.sampled: words must be positive";
  let cc = compile c in
  let ones =
    run cc ~words ~input_word ~valid:(fun _ -> lanes) ~record:no_record
  in
  { patterns = words * lanes; ones; table = [||] }

let truth_table_2x c ~width_a ~width_b =
  if width_a + width_b <> Circuit.input_count c then
    invalid_arg "Sim.truth_table_2x: widths do not match circuit inputs";
  let table = (exhaustive c).table in
  fun a b ->
    if a < 0 || a >= 1 lsl width_a then
      invalid_arg "Sim.truth_table_2x: operand a out of range";
    if b < 0 || b >= 1 lsl width_b then
      invalid_arg "Sim.truth_table_2x: operand b out of range";
    table.((b lsl width_a) lor a)
