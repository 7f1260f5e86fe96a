(* Formal-verification substrate: BDDs (construction, operations,
   model counting), circuit equivalence checking and the dead-logic
   stripping pass. *)

module Circuit = Ax_netlist.Circuit
module Bdd = Ax_netlist.Bdd
module Opt = Ax_netlist.Opt
module Multipliers = Ax_netlist.Multipliers
module Power = Ax_netlist.Power
module Bus = Ax_netlist.Bus
module Adders = Ax_netlist.Adders
module Sim = Ax_netlist.Sim
module Truncation = Ax_arith.Truncation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- bdd core --- *)

let test_bdd_terminals_and_vars () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  check_bool "x /= y" true (x <> y);
  check_int "var is canonical" x (Bdd.var m 0);
  check_bool "x and 0" true (Bdd.and_ m x Bdd.zero = Bdd.zero);
  check_bool "x or 1" true (Bdd.or_ m x Bdd.one = Bdd.one);
  check_bool "x xor x" true (Bdd.xor_ m x x = Bdd.zero);
  check_bool "not not x" true (Bdd.not_ m (Bdd.not_ m x) = x);
  check_bool "demorgan" true
    (Bdd.not_ m (Bdd.and_ m x y)
    = Bdd.or_ m (Bdd.not_ m x) (Bdd.not_ m y))

let test_bdd_canonicity_xor () =
  (* Two structurally different constructions of the same function must
     produce the same node. *)
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let direct = Bdd.xor_ m x y in
  let expanded =
    Bdd.or_ m
      (Bdd.and_ m x (Bdd.not_ m y))
      (Bdd.and_ m (Bdd.not_ m x) y)
  in
  check_int "canonical xor" direct expanded

let test_bdd_satisfy_count () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  check_float "count(x) over 3 vars" 4. (Bdd.satisfy_count m ~vars:3 x);
  check_float "count(x and y)" 2.
    (Bdd.satisfy_count m ~vars:3 (Bdd.and_ m x y));
  check_float "count(x or y or z)" 7.
    (Bdd.satisfy_count m ~vars:3 (Bdd.or_ m x (Bdd.or_ m y z)));
  check_float "count(1)" 8. (Bdd.satisfy_count m ~vars:3 Bdd.one);
  check_float "count(0)" 0. (Bdd.satisfy_count m ~vars:3 Bdd.zero);
  check_float "probability" 0.25
    (Bdd.probability_one m ~vars:3 (Bdd.and_ m x y))

let test_bdd_var_bounds () =
  (* Variable indices share a packed key with two node ids; one past the
     field must be refused, not alias a smaller variable. *)
  let m = Bdd.manager () in
  let top = Bdd.var m (Bdd.max_vars - 1) in
  check_bool "last variable is a fresh node" true (top <> Bdd.var m 0);
  List.iter
    (fun i ->
      match Bdd.var m i with
      | _ -> Alcotest.failf "Bdd.var %d: expected Invalid_argument" i
      | exception Invalid_argument _ -> ())
    [ Bdd.max_vars; Bdd.max_vars + 1; -1 ]

(* --- of_table against a Shannon reference --- *)

(* Top-down Shannon expansion through the public apply operations: an
   oracle for [Bdd.of_table] that reaches the same function by another
   route.  Variable [p] is bit [p] of the table index. *)
let shannon_reference m ~vars f =
  let ite v t e = Bdd.or_ m (Bdd.and_ m v t) (Bdd.and_ m (Bdd.not_ m v) e) in
  let rec build index p =
    if p < 0 then if f index then Bdd.one else Bdd.zero
    else
      ite (Bdd.var m p) (build (index + (1 lsl p)) (p - 1)) (build index (p - 1))
  in
  build 0 (vars - 1)

(* Tables over 1-10 variables at a random density, so constant, sparse
   and dense functions all occur. *)
let arb_table =
  let open QCheck.Gen in
  let gen =
    pair (int_range 1 10) (float_bound_inclusive 1.) >>= fun (vars, density) ->
    array_size (return (1 lsl vars)) (map (fun x -> x < density) (float_bound_inclusive 1.))
    >|= fun table -> (vars, table)
  in
  QCheck.make gen ~print:(fun (vars, table) ->
      Printf.sprintf "%d vars: %s" vars
        (String.init (Array.length table) (fun i -> if table.(i) then '1' else '0')))

let prop_of_table_is_canonical =
  QCheck.Test.make ~name:"of_table canonical, counts popcount"
    ~count:200 arb_table (fun (vars, table) ->
      let m = Bdd.manager () in
      let direct = Bdd.of_table m ~vars (Array.get table) in
      let reference = shannon_reference m ~vars (Array.get table) in
      let popcount = Array.fold_left (fun n b -> if b then n + 1 else n) 0 table in
      direct = reference
      && Bdd.satisfy_count m ~vars direct = float_of_int popcount)

(* --- the flat manager against the simulator --- *)

(* In one manager, each output's [of_circuit] node must be the very node
   [of_table] builds from the simulated truth table's column, and its
   model count the column's popcount.  [Error] names the first output
   that differs. *)
let circuit_matches_table m c =
  let vars = Circuit.input_count c in
  let s = Sim.exhaustive c in
  let outs = Bdd.of_circuit m c in
  let rec check k = function
    | [] -> Ok ()
    | (label, node) :: rest ->
      let column p = (s.Sim.table.(p) lsr k) land 1 = 1 in
      let popcount = ref 0 in
      for p = 0 to s.Sim.patterns - 1 do
        if column p then incr popcount
      done;
      if node <> Bdd.of_table m ~vars column then
        Error (label ^ ": of_circuit and of_table nodes differ")
      else if Bdd.satisfy_count m ~vars node <> float_of_int !popcount then
        Error (label ^ ": satisfy_count differs from the popcount")
      else check (k + 1) rest
  in
  check 0 outs

let prop_of_circuit_is_of_table =
  QCheck.Test.make ~name:"of_circuit node = of_table node, counts popcount"
    ~count:200 (Random_circuit.arbitrary ~max_inputs:12) (fun spec ->
      match circuit_matches_table (Bdd.manager ()) (Random_circuit.build spec) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* The exact 8x8 multiplier builds ~69k nodes, so the manager doubles
   its node arrays and both tables many times past their initial 1024
   nodes, and its apply calls outnumber the computed table's slots, so
   entries are overwritten; canonicity must survive both. *)
let test_bdd_grows_and_stays_canonical () =
  List.iter
    (fun (name, m) ->
      let mgr = Bdd.manager () in
      (match circuit_matches_table mgr m.Multipliers.circuit with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg);
      check_bool (name ^ ": grew past the initial capacity") true
        (Bdd.node_count mgr > 1024))
    [
      ("exact8", Multipliers.unsigned_array ~bits:8);
      ("bam_h2v6", Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6);
    ]

let test_bdd_probability_matches_exhaustive () =
  (* Exact signal probability of a full adder's carry: 4/8. *)
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let cin = Circuit.input c "cin" in
  let _, carry = Adders.full_adder c a b cin in
  Circuit.output c "carry" carry;
  let m = Bdd.manager () in
  let outs = Bdd.of_circuit m c in
  check_float "P(carry)" 0.5
    (Bdd.probability_one m ~vars:3 (List.assoc "carry" outs))

let test_bdd_exposes_independence_approximation_error () =
  (* Power.signal_probabilities assumes independent fan-ins; at a
     reconvergent node (x AND x built via two paths) the approximation
     errs while the BDD is exact.  y = (x OR x') AND x where x' = NOT
     NOT x would be folded by the builder, so use y = (a AND b) OR
     (a AND NOT b) = a: approximation gives 0.25+0.25=0.4375, exact 0.5. *)
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let left = Circuit.and_ c a b in
  let right = Circuit.and_ c a (Circuit.not_ c b) in
  let y = Circuit.or_ c left right in
  Circuit.output c "y" y;
  let approx = (Power.signal_probabilities c).(Circuit.index y) in
  let m = Bdd.manager () in
  let exact =
    Bdd.probability_one m ~vars:2 (List.assoc "y" (Bdd.of_circuit m c))
  in
  check_float "exact is 1/2" 0.5 exact;
  check_bool "approximation differs at reconvergence" true
    (abs_float (approx -. exact) > 0.05)

(* --- equivalence checking --- *)

let ripple_adder_circuit ~name ~bits =
  let c = Circuit.create ~name () in
  let a = Bus.input c "a" bits and b = Bus.input c "b" bits in
  let sum, carry = Adders.ripple_carry c a b in
  Bus.output c "s" sum;
  Circuit.output c "cout" carry;
  c

let test_equivalent_same_structure () =
  let a = ripple_adder_circuit ~name:"a" ~bits:4 in
  let b = ripple_adder_circuit ~name:"b" ~bits:4 in
  check_bool "identical adders" true (Bdd.equivalent a b)

let test_equivalent_detects_difference () =
  let a = ripple_adder_circuit ~name:"a" ~bits:4 in
  (* An adder whose carry-in is stuck at 1 differs. *)
  let c = Circuit.create ~name:"b" () in
  let x = Bus.input c "a" 4 and y = Bus.input c "b" 4 in
  let sum, carry = Adders.ripple_carry c ~carry_in:(Circuit.const c true) x y in
  Bus.output c "s" sum;
  Circuit.output c "cout" carry;
  check_bool "stuck carry detected" false (Bdd.equivalent a c)

let test_equivalent_multipliers () =
  (* The 4-bit exact multiplier equals itself and differs from the
     truncated one — checked formally, not by simulation. *)
  let exact1 = Multipliers.unsigned_array ~bits:4 in
  let exact2 = Multipliers.unsigned_array ~bits:4 in
  check_bool "exact = exact" true
    (Bdd.equivalent exact1.Multipliers.circuit exact2.Multipliers.circuit);
  let trunc = Multipliers.truncated ~bits:4 ~cut:3 in
  (* Same interface labels (a_i, b_i, p_i), different function. *)
  check_bool "exact /= truncated" false
    (Bdd.equivalent exact1.Multipliers.circuit trunc.Multipliers.circuit)

let test_equivalent_validates_interfaces () =
  let a = ripple_adder_circuit ~name:"a" ~bits:4 in
  let b = ripple_adder_circuit ~name:"b" ~bits:5 in
  Alcotest.check_raises "input mismatch"
    (Invalid_argument "Bdd.equivalent: input counts differ") (fun () ->
      ignore (Bdd.equivalent a b))

let test_bdd_full_8x8_multiplier_output_bit () =
  (* Build the BDD of the 8x8 multiplier (the classically BDD-hard
     function) and validate one output bit against simulation. *)
  let m8 = Multipliers.unsigned_array ~bits:8 in
  let mgr = Bdd.manager () in
  let outs = Bdd.of_circuit mgr m8.Multipliers.circuit in
  (* P(p_15 = 1) from the BDD must match the exhaustive count. *)
  let exact_count = ref 0 in
  for a = 0 to 255 do
    for b = 0 to 255 do
      if (a * b) lsr 15 land 1 = 1 then incr exact_count
    done
  done;
  let bdd_count =
    Bdd.satisfy_count mgr ~vars:16 (List.assoc "p_15" outs)
  in
  check_float "p_15 model count" (float_of_int !exact_count) bdd_count

(* --- strip_dead --- *)

let test_strip_dead_removes_unused_logic () =
  let c = Circuit.create ~name:"waste" () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let used = Circuit.and_ c a b in
  (* Unused cone. *)
  let t1 = Circuit.xor_ c a b in
  let _t2 = Circuit.or_ c t1 (Circuit.not_ c a) in
  Circuit.output c "y" used;
  let stripped, stats = Opt.strip_dead_with_stats c in
  check_bool "nodes removed" true
    (stats.Opt.nodes_after < stats.Opt.nodes_before);
  check_int "gates after" 1 (Circuit.gate_count stripped);
  check_int "inputs preserved" 2 (Circuit.input_count stripped);
  check_bool "functionally equal" true (Bdd.equivalent c stripped)

let test_strip_dead_multiplier_and_idempotence () =
  (* Generators pre-strip the discarded final carry-out cone, so a
     second strip is the identity. *)
  let m = Multipliers.unsigned_array ~bits:4 in
  let stripped, stats = Opt.strip_dead_with_stats m.Multipliers.circuit in
  check_int "generators pre-strip" stats.Opt.nodes_before
    stats.Opt.nodes_after;
  check_bool "equivalent" true
    (Bdd.equivalent m.Multipliers.circuit stripped)

let test_strip_dead_after_pruning () =
  (* Pruning partial products can orphan compression-tree logic only if
     built carelessly; our generator never emits it, so stripping is a
     no-op — but the stripped circuit must stay equivalent regardless. *)
  let m = Multipliers.broken_array ~bits:6 ~hbl:2 ~vbl:4 in
  let stripped = Opt.strip_dead m.Multipliers.circuit in
  check_bool "still the same function" true
    (Bdd.equivalent m.Multipliers.circuit stripped);
  (* And simulation agrees with the original behavioural model. *)
  let f = Sim.truth_table_2x stripped ~width_a:6 ~width_b:6 in
  let reference = Truncation.broken_array ~bits:6 ~hbl:2 ~vbl:4 in
  for a = 0 to 63 do
    for b = 0 to 63 do
      if f a b <> reference a b then
        Alcotest.failf "stripped bam differs at %d*%d" a b
    done
  done

let () =
  Alcotest.run "ax_formal"
    [
      ( "bdd",
        [
          Alcotest.test_case "terminals and vars" `Quick
            test_bdd_terminals_and_vars;
          Alcotest.test_case "canonicity" `Quick test_bdd_canonicity_xor;
          Alcotest.test_case "model counting" `Quick test_bdd_satisfy_count;
          Alcotest.test_case "probability vs exhaustive" `Quick
            test_bdd_probability_matches_exhaustive;
          Alcotest.test_case "independence approximation error" `Quick
            test_bdd_exposes_independence_approximation_error;
          Alcotest.test_case "variable index bounds" `Quick test_bdd_var_bounds;
          Alcotest.test_case "grows and stays canonical" `Slow
            test_bdd_grows_and_stays_canonical;
          QCheck_alcotest.to_alcotest prop_of_table_is_canonical;
          QCheck_alcotest.to_alcotest prop_of_circuit_is_of_table;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "same structure" `Quick
            test_equivalent_same_structure;
          Alcotest.test_case "detects difference" `Quick
            test_equivalent_detects_difference;
          Alcotest.test_case "multipliers" `Quick test_equivalent_multipliers;
          Alcotest.test_case "validates interfaces" `Quick
            test_equivalent_validates_interfaces;
          Alcotest.test_case "8x8 multiplier bit (model count)" `Slow
            test_bdd_full_8x8_multiplier_output_bit;
        ] );
      ( "opt",
        [
          Alcotest.test_case "removes unused logic" `Quick
            test_strip_dead_removes_unused_logic;
          Alcotest.test_case "multiplier + idempotence" `Quick
            test_strip_dead_multiplier_and_idempotence;
          Alcotest.test_case "after pruning" `Quick test_strip_dead_after_pruning;
        ] );
    ]
