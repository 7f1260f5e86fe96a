(* Tests for the gate-level netlist substrate: builder invariants,
   simulators, adders, multiplier generators, hardware cost model and
   Verilog export. *)

module Circuit = Ax_netlist.Circuit
module Gate = Ax_netlist.Gate
module Sim = Ax_netlist.Sim
module Bus = Ax_netlist.Bus
module Adders = Ax_netlist.Adders
module Multipliers = Ax_netlist.Multipliers
module Power = Ax_netlist.Power
module Verilog = Ax_netlist.Verilog
module Opt = Ax_netlist.Opt
module Bdd = Ax_netlist.Bdd

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- builder --- *)

let test_structural_hashing () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let x = Circuit.and_ c a b in
  let y = Circuit.and_ c b a in
  check_int "AND(a,b) and AND(b,a) share one node" (Circuit.index x)
    (Circuit.index y);
  let n = Circuit.node_count c in
  let _ = Circuit.and_ c a b in
  check_int "no new node for duplicate gate" n (Circuit.node_count c)

let test_constant_folding () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" in
  let f = Circuit.const c false and t = Circuit.const c true in
  check_int "a AND 0 = 0" (Circuit.index f) (Circuit.index (Circuit.and_ c a f));
  check_int "a AND 1 = a" (Circuit.index a) (Circuit.index (Circuit.and_ c a t));
  check_int "a OR 1 = 1" (Circuit.index t) (Circuit.index (Circuit.or_ c a t));
  check_int "a OR 0 = a" (Circuit.index a) (Circuit.index (Circuit.or_ c a f));
  check_int "a XOR 0 = a" (Circuit.index a) (Circuit.index (Circuit.xor_ c a f));
  check_int "a XOR a = 0" (Circuit.index f) (Circuit.index (Circuit.xor_ c a a));
  check_int "NOT NOT a = a" (Circuit.index a)
    (Circuit.index (Circuit.not_ c (Circuit.not_ c a)))

let test_duplicate_output_rejected () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" in
  Circuit.output c "y" a;
  Alcotest.check_raises "duplicate output label"
    (Invalid_argument "Circuit.output: duplicate label y") (fun () ->
      Circuit.output c "y" a)

(* A signal from another circuit must be refused by every constructor,
   [buf_] and [output] included, not accepted and left for a simulator
   to trip over. *)
let test_foreign_signal_rejected () =
  let big = Circuit.create () in
  let ins = List.init 6 (fun i -> Circuit.input big (Printf.sprintf "x%d" i)) in
  let foreign = List.nth ins 5 in
  let c = Circuit.create () in
  let a = Circuit.input c "a" in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a foreign signal" what
    | exception Invalid_argument _ -> ()
  in
  rejects "buf_" (fun () -> ignore (Circuit.buf_ c foreign));
  rejects "not_" (fun () -> ignore (Circuit.not_ c foreign));
  rejects "and_" (fun () -> ignore (Circuit.and_ c a foreign));
  rejects "output" (fun () -> Circuit.output c "y" foreign);
  check_int "nothing registered" 0 (Circuit.output_count c);
  check_int "nothing appended" 1 (Circuit.node_count c)

let test_levelize () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let x = Circuit.xor_ c a b in
  let y = Circuit.and_ c x b in
  let levels = Circuit.levelize c in
  check_int "input level" 0 levels.(Circuit.index a);
  check_int "first gate level" 1 levels.(Circuit.index x);
  check_int "second gate level" 2 levels.(Circuit.index y)

(* --- simulators --- *)

let xor_circuit () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  Circuit.output c "y" (Circuit.xor_ c a b);
  c

let test_eval_truth_table () =
  let c = xor_circuit () in
  List.iter
    (fun (a, b, want) ->
      let out = Sim.eval c [| a; b |] in
      check_bool (Printf.sprintf "xor %b %b" a b) want out.(0))
    [ (false, false, false); (true, false, true); (false, true, true);
      (true, true, false) ]

let test_eval_wrong_arity () =
  let c = xor_circuit () in
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Sim.eval: 1 inputs given, circuit has 2") (fun () ->
      ignore (Sim.eval c [| true |]))

let test_sweep_matches_eval () =
  let c = xor_circuit () in
  let s = Sim.exhaustive c in
  check_int "four patterns" 4 s.Sim.patterns;
  (* pattern p binds a to bit 0 and b to bit 1 *)
  for p = 0 to 3 do
    let out = Sim.eval c [| p land 1 = 1; p land 2 = 2 |] in
    check_int (Printf.sprintf "pattern %d" p)
      (if out.(0) then 1 else 0)
      s.Sim.table.(p)
  done;
  (* a, b and a xor b are each high on two of the four patterns *)
  Array.iteri
    (fun i ones -> check_int (Printf.sprintf "node %d one-count" i) 2 ones)
    s.Sim.ones

let test_eval_unsigned () =
  let c = Circuit.create () in
  let a = Bus.input c "a" 4 and b = Bus.input c "b" 4 in
  let sum, carry = Adders.ripple_carry c a b in
  Bus.output c "s" sum;
  Circuit.output c "cout" carry;
  for x = 0 to 15 do
    for y = 0 to 15 do
      let encoded = x lor (y lsl 4) in
      let got = Sim.eval_unsigned c ~input_bits:[ 4; 4 ] encoded in
      check_int (Printf.sprintf "%d+%d" x y) (x + y) got
    done
  done

(* --- adders --- *)

let test_full_adder_exhaustive () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let cin = Circuit.input c "cin" in
  let s, co = Adders.full_adder c a b cin in
  Circuit.output c "s" s;
  Circuit.output c "co" co;
  for v = 0 to 7 do
    let bit k = (v lsr k) land 1 = 1 in
    let out = Sim.eval c [| bit 0; bit 1; bit 2 |] in
    let expect = (v land 1) + ((v lsr 1) land 1) + ((v lsr 2) land 1) in
    check_bool "sum" (expect land 1 = 1) out.(0);
    check_bool "carry" (expect lsr 1 = 1) out.(1)
  done

let test_carry_save_reduce_constants () =
  (* Sum three constant 4-bit rows: 5 + 9 + 14 = 28 = 0b11100. *)
  let c = Circuit.create () in
  let rows = List.map (fun v -> Bus.of_int c ~width:5 v) [ 5; 9; 14 ] in
  let columns = Array.make 5 [] in
  List.iter
    (fun row ->
      Array.iteri (fun k s -> columns.(k) <- s :: columns.(k)) row)
    rows;
  let sum = Adders.carry_save_reduce c ~width:5 columns in
  Bus.output c "s" sum;
  let got = Sim.eval_unsigned c ~input_bits:[] 0 in
  check_int "carry-save constant sum" 28 got

let test_kogge_stone_exhaustive () =
  let c = Circuit.create () in
  let a = Bus.input c "a" 8 and b = Bus.input c "b" 8 in
  let cin = Circuit.input c "cin" in
  let sum, carry = Adders.kogge_stone c ~carry_in:cin a b in
  Bus.output c "s" sum;
  Circuit.output c "cout" carry;
  for x = 0 to 255 do
    for y = 0 to 255 do
      for ci = 0 to 1 do
        let encoded = x lor (y lsl 8) lor (ci lsl 16) in
        let got = Sim.eval_unsigned c ~input_bits:[ 8; 8; 1 ] encoded in
        if got <> x + y + ci then
          Alcotest.failf "KS %d+%d+%d: got %d" x y ci got
      done
    done
  done

let test_kogge_stone_shallower_than_ripple () =
  (* The point of the parallel prefix: logarithmic logic depth.  The
     unit-delay model must see it. *)
  let delay_of build =
    let c = Circuit.create () in
    let a = Bus.input c "a" 16 and b = Bus.input c "b" 16 in
    let sum, carry = build c a b in
    Bus.output c "s" sum;
    Circuit.output c "cout" carry;
    (Power.analyze c).Power.delay
  in
  let ripple = delay_of (fun c a b -> Adders.ripple_carry c a b) in
  let ks = delay_of (fun c a b -> Adders.kogge_stone c a b) in
  check_bool
    (Printf.sprintf "KS (%.1f) much shallower than ripple (%.1f)" ks ripple)
    true
    (ks < 0.6 *. ripple)

let test_lower_or_adder () =
  (* Gate-level LOA vs the behavioural accumulator model, exhaustive on
     8-bit operands. *)
  let approx_bits = 3 in
  let c = Circuit.create () in
  let a = Bus.input c "a" 8 and b = Bus.input c "b" 8 in
  let sum, _carry = Adders.lower_or c ~approx_bits a b in
  Bus.output c "s" sum;
  let module Acc = Ax_nn.Accumulator in
  let model = Acc.Lower_or { width = 8; approx_low = approx_bits } in
  for x = 0 to 255 do
    for y = 0 to 255 do
      let got = Sim.eval_unsigned c ~input_bits:[ 8; 8 ] (x lor (y lsl 8)) in
      (* The accumulator decodes two's complement; re-encode to compare
         raw 8-bit patterns. *)
      let want = Acc.add model x y land 0xff in
      if got <> want then
        Alcotest.failf "LOA %d+%d: netlist %d model %d" x y got want
    done
  done

let test_lower_or_zero_is_exact () =
  let c = Circuit.create () in
  let a = Bus.input c "a" 6 and b = Bus.input c "b" 6 in
  let sum, carry = Adders.lower_or c ~approx_bits:0 a b in
  Bus.output c "s" sum;
  Circuit.output c "cout" carry;
  for x = 0 to 63 do
    for y = 0 to 63 do
      let got = Sim.eval_unsigned c ~input_bits:[ 6; 6 ] (x lor (y lsl 6)) in
      check_int (Printf.sprintf "%d+%d" x y) (x + y) got
    done
  done

let test_lower_or_cheaper_than_exact () =
  let cost approx_bits =
    let c = Circuit.create () in
    let a = Bus.input c "a" 8 and b = Bus.input c "b" 8 in
    let sum, _ = Adders.lower_or c ~approx_bits a b in
    Bus.output c "s" sum;
    (Power.analyze c).Power.area
  in
  check_bool "LOA cuts area" true (cost 4 < cost 0)

(* --- multipliers --- *)

let test_unsigned_array_exhaustive () =
  let m = Multipliers.unsigned_array ~bits:8 in
  let f = Multipliers.behavioural m in
  for a = 0 to 255 do
    for b = 0 to 255 do
      if f a b <> a * b then
        Alcotest.failf "mul8u %d*%d: got %d want %d" a b (f a b) (a * b)
    done
  done

let test_baugh_wooley_exhaustive () =
  let m = Multipliers.baugh_wooley_signed ~bits:8 in
  let f = Multipliers.behavioural m in
  let to_signed8 v = if v >= 128 then v - 256 else v in
  let to_signed16 v = if v >= 32768 then v - 65536 else v in
  for a = 0 to 255 do
    for b = 0 to 255 do
      let want = to_signed8 a * to_signed8 b in
      let got = to_signed16 (f a b) in
      if got <> want then
        Alcotest.failf "mul8s %d*%d: got %d want %d" (to_signed8 a)
          (to_signed8 b) got want
    done
  done

let test_truncated_properties () =
  let cut = 8 in
  let m = Multipliers.truncated ~bits:8 ~cut in
  let f = Multipliers.behavioural m in
  (* Truncation only ever under-estimates, by less than the sum of all
     dropped partial products. *)
  for a = 0 to 255 do
    for b = 0 to 255 do
      let dropped = ref 0 in
      for i = 0 to 7 do
        for j = 0 to 7 do
          if i + j < cut then
            dropped :=
              !dropped + (((a lsr i) land 1) * ((b lsr j) land 1) lsl (i + j))
        done
      done;
      let want = (a * b) - !dropped in
      if f a b <> want then
        Alcotest.failf "trunc %d*%d: got %d want %d" a b (f a b) want
    done
  done

let test_truncated_cut0_is_exact () =
  let m = Multipliers.truncated ~bits:8 ~cut:0 in
  let f = Multipliers.behavioural m in
  for a = 0 to 255 do
    let b = (a * 37) land 255 in
    check_int "cut=0 exact" (a * b) (f a b)
  done

let test_broken_array_zero_breaks_is_exact () =
  let m = Multipliers.broken_array ~bits:8 ~hbl:0 ~vbl:0 in
  let f = Multipliers.behavioural m in
  for a = 0 to 255 do
    let b = (a * 91 + 13) land 255 in
    check_int "bam(0,0) exact" (a * b) (f a b)
  done

let test_broken_array_smaller_area () =
  let exact = Multipliers.unsigned_array ~bits:8 in
  let bam = Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6 in
  let ra = (Power.analyze exact.Multipliers.circuit).Power.area in
  let rb = (Power.analyze bam.Multipliers.circuit).Power.area in
  check_bool "pruning reduces area" true (rb < ra)

let test_bad_parameters_rejected () =
  Alcotest.check_raises "cut range"
    (Invalid_argument "Multipliers.truncated: cut out of range") (fun () ->
      ignore (Multipliers.truncated ~bits:8 ~cut:17));
  Alcotest.check_raises "hbl range"
    (Invalid_argument "Multipliers.broken_array: hbl out of range") (fun () ->
      ignore (Multipliers.broken_array ~bits:8 ~hbl:9 ~vbl:0))

(* --- power model --- *)

let test_power_report_sane () =
  let m = Multipliers.unsigned_array ~bits:4 in
  let r = Power.analyze m.Multipliers.circuit in
  check_bool "positive area" true (r.Power.area > 0.);
  check_bool "positive delay" true (r.Power.delay > 0.);
  check_bool "positive power" true (r.Power.power > 0.);
  check_bool "gates counted" true (r.Power.gates > 0);
  check_bool "pdp consistent" true
    (abs_float (r.Power.pdp -. (r.Power.power *. r.Power.delay)) < 1e-9)

let test_signal_probabilities () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" and b = Circuit.input c "b" in
  let y = Circuit.and_ c a b in
  let n = Circuit.nor_ c a b in
  let p = Power.signal_probabilities c in
  Alcotest.(check (float 1e-9)) "p(and)" 0.25 p.(Circuit.index y);
  Alcotest.(check (float 1e-9)) "p(nor)" 0.25 p.(Circuit.index n)

let test_delay_monotone_in_depth () =
  let shallow = Multipliers.unsigned_array ~bits:4 in
  let deep = Multipliers.unsigned_array ~bits:8 in
  let rs = Power.analyze shallow.Multipliers.circuit in
  let rd = Power.analyze deep.Multipliers.circuit in
  check_bool "wider multiplier is slower" true (rd.Power.delay > rs.Power.delay)

(* --- dead-logic sweep --- *)

let strip_subjects () =
  [
    ("mul8u_exact", Multipliers.unsigned_array ~bits:8);
    ("mul8u_trunc4", Multipliers.truncated ~bits:8 ~cut:4);
    ("mul8u_trunc8", Multipliers.truncated ~bits:8 ~cut:8);
    ("mul8u_bam_h3v8", Multipliers.broken_array ~bits:8 ~hbl:3 ~vbl:8);
    ("mul8s_bw", Multipliers.baugh_wooley_signed ~bits:8);
  ]

(* The contract every explore candidate (and the LUT extraction path)
   leans on: strip_dead keeps primary inputs and registered outputs in
   their original order — downstream code addresses operand bits by
   creation order — and the swept circuit is BDD-equivalent to the
   original, proven per output over all input assignments. *)
let test_strip_dead_interface_and_equivalence () =
  let interface c =
    ( List.map fst (Circuit.inputs c),
      List.map fst (Circuit.outputs c) )
  in
  List.iter
    (fun (name, m) ->
      let c = m.Multipliers.circuit in
      let c' = Opt.strip_dead c in
      check_bool (name ^ ": interface order preserved") true
        (interface c = interface c');
      check_bool (name ^ ": no growth") true
        (Circuit.node_count c' <= Circuit.node_count c);
      check_bool (name ^ ": BDD-equivalent") true (Bdd.equivalent c c');
      check_bool (name ^ ": idempotent") true
        (Circuit.node_count (Opt.strip_dead c') = Circuit.node_count c'))
    (strip_subjects ())

(* Synthetic fixture with a deep dead cone and an input that drives
   only dead logic: the cone goes, the input interface stays intact. *)
let test_strip_dead_fixture () =
  let c = Circuit.create () in
  let a = Circuit.input c "a" in
  let b = Circuit.input c "b" in
  let u = Circuit.input c "u" in
  let live = Circuit.xor_ c a b in
  let dead1 = Circuit.nand_ c live u in
  let dead2 = Circuit.or_ c dead1 u in
  ignore (Circuit.xnor_ c dead2 a);
  Circuit.output c "y" live;
  let c' = Opt.strip_dead c in
  Alcotest.(check (list string))
    "inputs preserved, including the dead-cone-only one" [ "a"; "b"; "u" ]
    (List.map fst (Circuit.inputs c'));
  Alcotest.(check (list string))
    "outputs preserved" [ "y" ]
    (List.map fst (Circuit.outputs c'));
  check_bool "dead cone removed" true
    (Circuit.node_count c' < Circuit.node_count c);
  check_int "only the live gate survives" 1 (Circuit.gate_count c');
  check_bool "function preserved" true (Bdd.equivalent c c')

(* --- power cross-checks --- *)

(* The textbook reconvergent-fanout counterexample: under the analytic
   independence approximation p(x AND NOT x) = 0.25, while the true
   probability is 0.  The exact and Monte-Carlo estimators must both
   get this right — it is the error that motivated replacing the
   analytic default in Power.analyze. *)
let test_power_reconvergent_fanout () =
  let c = Circuit.create () in
  let x = Circuit.input c "x" in
  let nx = Circuit.not_ c x in
  let y = Circuit.and_ c x nx in
  Circuit.output c "y" y;
  let i = Circuit.index y in
  let analytic = Power.signal_probabilities c in
  let exact = Power.exact_signal_probabilities c in
  let mc = Power.monte_carlo_signal_probabilities ~seed:1 ~samples:4096 c in
  Alcotest.(check (float 1e-9)) "analytic foil gets 0.25" 0.25 analytic.(i);
  Alcotest.(check (float 1e-9)) "exact gets 0" 0.0 exact.(i);
  Alcotest.(check (float 1e-9)) "monte-carlo gets 0" 0.0 mc.(i)

(* Monte-Carlo vs exhaustive cross-check over the multiplier generators.
   Tolerance: 16384 Bernoulli samples give a standard error of at most
   0.5/sqrt(16384) ~ 0.004 per node; 0.02 is 5 sigma.  Measured drift
   on these circuits is <= 0.011.  The analytic estimator, by contrast,
   must sit well outside that band somewhere on every multiplier (they
   all reconverge) — pinning both sides keeps the cross-check honest. *)
let test_power_monte_carlo_cross_check () =
  let max_diff a b =
    let d = ref 0. in
    Array.iteri (fun i x -> d := max !d (abs_float (x -. b.(i)))) a;
    !d
  in
  List.iter
    (fun (name, m) ->
      let c = m.Multipliers.circuit in
      let exact = Power.exact_signal_probabilities c in
      let mc =
        Power.monte_carlo_signal_probabilities ~seed:42 ~samples:16384 c
      in
      let analytic = Power.signal_probabilities c in
      check_bool (name ^ ": MC within 0.02 of exact") true
        (max_diff exact mc <= 0.02);
      check_bool (name ^ ": analytic diverges beyond the MC band") true
        (max_diff exact analytic > 0.05))
    (strip_subjects ())

(* The figure of merit the explore scorer ranks candidates by.  Deeper
   truncation must cost strictly less PDP, and the ranking (plus the
   values, within 1%) must be identical whether switching activity
   comes from the exhaustive or the Monte-Carlo estimator. *)
let test_power_pdp_ranking_pinned () =
  let pdp probabilities c = (Power.analyze ~probabilities c).Power.pdp in
  let measure m =
    let c = m.Multipliers.circuit in
    ( pdp (Power.exact_signal_probabilities c) c,
      pdp (Power.monte_carlo_signal_probabilities ~seed:7 ~samples:16384 c) c
    )
  in
  let e_exact, m_exact = measure (Multipliers.unsigned_array ~bits:8) in
  let e_t6, m_t6 = measure (Multipliers.truncated ~bits:8 ~cut:6) in
  let e_t8, m_t8 = measure (Multipliers.truncated ~bits:8 ~cut:8) in
  check_bool "exact > trunc6 > trunc8 (exhaustive)" true
    (e_exact > e_t6 && e_t6 > e_t8);
  check_bool "exact > trunc6 > trunc8 (monte-carlo)" true
    (m_exact > m_t6 && m_t6 > m_t8);
  List.iter
    (fun (e, m) ->
      check_bool "MC PDP within 1% of exhaustive" true
        (abs_float (m -. e) /. e < 0.01))
    [ (e_exact, m_exact); (e_t6, m_t6); (e_t8, m_t8) ]

let test_power_analyze_guards () =
  let m = Multipliers.unsigned_array ~bits:4 in
  Alcotest.check_raises "probability vector length checked"
    (Invalid_argument "Power.analyze: probabilities length <> node count")
    (fun () ->
      ignore (Power.analyze ~probabilities:[| 0.5 |] m.Multipliers.circuit));
  (* The default estimator for a small circuit is the exact one: the
     report must match an explicit exact-probability analysis. *)
  let r = Power.analyze m.Multipliers.circuit in
  let r' =
    Power.analyze
      ~probabilities:(Power.exact_signal_probabilities m.Multipliers.circuit)
      m.Multipliers.circuit
  in
  check_bool "analyze defaults to exact probabilities" true (r = r')

(* More outputs than a table word holds: the sweep that writes the
   table refuses the circuit, the power path (which needs only the
   one-counts) does not, and its probabilities are the exact ones. *)
let test_power_many_outputs () =
  let c = Circuit.create () in
  let ins = Array.init 6 (fun i -> Circuit.input c (Printf.sprintf "x%d" i)) in
  let s = ref ins.(0) in
  for k = 0 to 39 do
    let x = ins.((k + 1) mod 6) in
    s :=
      (match k mod 3 with
      | 0 -> Circuit.xor_ c !s x
      | 1 -> Circuit.or_ c !s x
      | _ -> Circuit.nand_ c !s x);
    Circuit.output c (Printf.sprintf "y%d" k) !s
  done;
  let n = Circuit.node_count c in
  let ones = Array.make n 0 in
  for p = 0 to 63 do
    let values = Array.make n false in
    let next_input = ref 0 in
    Circuit.iter_gates c (fun i g ->
        values.(i) <-
          (match g with
          | Gate.Input _ ->
            incr next_input;
            (p lsr (!next_input - 1)) land 1 = 1
          | g -> Gate.eval g (fun j -> values.(j)));
        if values.(i) then ones.(i) <- ones.(i) + 1)
  done;
  Alcotest.check_raises "table refused past 32 outputs"
    (Invalid_argument "Sim.exhaustive: 40 outputs exceed the 32-output limit")
    (fun () -> ignore (Sim.exhaustive c));
  let sweep = Sim.exhaustive ~table:false c in
  check_int "no table" 0 (Array.length sweep.Sim.table);
  check_bool "one-counts exact" true (sweep.Sim.ones = ones);
  let exact = Array.map (fun k -> float_of_int k /. 64.) ones in
  check_bool "analyze uses the exact probabilities" true
    (Power.analyze c = Power.analyze ~probabilities:exact c)

(* --- the sweep against the boxed loops it replaced --- *)

(* Test-local verbatim copies of the two bit-parallel loops the sweep
   replaced: [Gate.eval_word], [Sim.eval_words] and [Sim.truth_table_2x],
   and [Power]'s [popcount64], [count_ones_by_simulation] and the input
   words of its exhaustive and Monte-Carlo estimators.  They are the
   oracle: the sweep's LUT, one-counts and estimates must be identical. *)
module Boxed = struct
  let eval_word g look =
    let open Int64 in
    match g with
    | Gate.Input s -> invalid_arg ("Gate.eval_word: unresolved input " ^ s)
    | Gate.Const true -> minus_one
    | Gate.Const false -> zero
    | Gate.Buf a -> look a
    | Gate.Not a -> lognot (look a)
    | Gate.And2 (a, b) -> logand (look a) (look b)
    | Gate.Or2 (a, b) -> logor (look a) (look b)
    | Gate.Xor2 (a, b) -> logxor (look a) (look b)
    | Gate.Nand2 (a, b) -> lognot (logand (look a) (look b))
    | Gate.Nor2 (a, b) -> lognot (logor (look a) (look b))
    | Gate.Xnor2 (a, b) -> lognot (logxor (look a) (look b))

  let eval_words c ins =
    let expected = Circuit.input_count c in
    if Array.length ins <> expected then
      invalid_arg
        (Printf.sprintf "Sim.eval_words: %d inputs given, circuit has %d"
           (Array.length ins) expected);
    let values = Array.make (Circuit.node_count c) 0L in
    let next_input = ref 0 in
    Circuit.iter_gates c (fun i g ->
        match g with
        | Gate.Input _ ->
          values.(i) <- ins.(!next_input);
          incr next_input
        | g -> values.(i) <- eval_word g (fun j -> values.(j)));
    let outs = Circuit.outputs c in
    Array.of_list (List.map (fun (_, s) -> values.(Circuit.index s)) outs)

  let truth_table_2x c ~width_a ~width_b =
    if width_a + width_b <> Circuit.input_count c then
      invalid_arg "Sim.truth_table_2x: widths do not match circuit inputs";
    let patterns = 1 lsl (width_a + width_b) in
    let sweeps = (patterns + 63) / 64 in
    let table = Array.make patterns 0 in
    let words = Array.make (width_a + width_b) 0L in
    for s = 0 to sweeps - 1 do
      let base = s * 64 in
      for bit = 0 to width_a + width_b - 1 do
        let w = ref 0L in
        for lane = 0 to 63 do
          let p = base + lane in
          if p < patterns && (p lsr bit) land 1 = 1 then
            w := Int64.logor !w (Int64.shift_left 1L lane)
        done;
        words.(bit) <- !w
      done;
      let outs = eval_words c words in
      for lane = 0 to 63 do
        let p = base + lane in
        if p < patterns then begin
          let v = ref 0 in
          Array.iteri
            (fun bit w ->
              if Int64.logand (Int64.shift_right_logical w lane) 1L = 1L then
                v := !v lor (1 lsl bit))
            outs;
          table.(p) <- !v
        end
      done
    done;
    fun a b ->
      if a < 0 || a >= 1 lsl width_a then
        invalid_arg "Sim.truth_table_2x: operand a out of range";
      if b < 0 || b >= 1 lsl width_b then
        invalid_arg "Sim.truth_table_2x: operand b out of range";
      table.((b lsl width_a) lor a)

  let popcount64 x =
    let open Int64 in
    let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
    let x =
      add
        (logand x 0x3333333333333333L)
        (logand (shift_right_logical x 2) 0x3333333333333333L)
    in
    let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
    to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

  let count_ones_by_simulation c ~sweeps ~word_for ~lanes_of =
    let n = Circuit.node_count c in
    let counts = Array.make n 0 in
    let values = Array.make n 0L in
    let total_lanes = ref 0 in
    for sweep = 0 to sweeps - 1 do
      let next_input = ref 0 in
      Circuit.iter_gates c (fun i g ->
          match g with
          | Gate.Input _ ->
            values.(i) <- word_for ~sweep ~input_ordinal:!next_input;
            incr next_input
          | g -> values.(i) <- eval_word g (fun j -> values.(j)));
      let lanes = lanes_of sweep in
      let mask =
        if lanes >= 64 then -1L
        else Int64.sub (Int64.shift_left 1L lanes) 1L
      in
      total_lanes := !total_lanes + Int.min lanes 64;
      for i = 0 to n - 1 do
        counts.(i) <- counts.(i) + popcount64 (Int64.logand values.(i) mask)
      done
    done;
    (counts, !total_lanes)

  (* [exact_signal_probabilities]' sweep, returning the raw counts *)
  let exact_counts c =
    let bits = Circuit.input_count c in
    let patterns = 1 lsl bits in
    let sweeps = (patterns + 63) / 64 in
    let word_for ~sweep ~input_ordinal =
      let w = ref 0L in
      for lane = 0 to 63 do
        let p = (sweep * 64) + lane in
        if p < patterns && (p lsr input_ordinal) land 1 = 1 then
          w := Int64.logor !w (Int64.shift_left 1L lane)
      done;
      !w
    in
    let lanes_of sweep = Int.min 64 (patterns - (sweep * 64)) in
    count_ones_by_simulation c ~sweeps ~word_for ~lanes_of

  let monte_carlo_signal_probabilities ~seed ~samples c =
    let state = ref (Int64.logxor (Int64.of_int seed) 0x9E3779B97F4A7C15L) in
    let next () =
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      let z = !state in
      let z =
        Int64.mul
          (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul
          (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      Int64.logxor z (Int64.shift_right_logical z 31)
    in
    let sweeps = (samples + 63) / 64 in
    let bits = Circuit.input_count c in
    let table = Array.init (sweeps * Int.max 1 bits) (fun _ -> next ()) in
    let word_for ~sweep ~input_ordinal = table.((sweep * bits) + input_ordinal) in
    let lanes_of _ = 64 in
    let counts, total = count_ones_by_simulation c ~sweeps ~word_for ~lanes_of in
    Array.map (fun ones -> float_of_int ones /. float_of_int total) counts
end

(* Table, one-counts and Monte-Carlo estimates identical to the boxed
   loops on one circuit; [Error] names the first difference. *)
let sweep_vs_boxed ?(mc_samples = [ 1; 100; 4096 ]) c =
  let inputs = Circuit.input_count c in
  let wa = inputs / 2 in
  let wb = inputs - wa in
  let s = Sim.exhaustive c in
  let old_tt = Boxed.truth_table_2x c ~width_a:wa ~width_b:wb in
  let new_tt = Sim.truth_table_2x c ~width_a:wa ~width_b:wb in
  let counts, total = Boxed.exact_counts c in
  let first_diff = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun m -> if Option.is_none !first_diff then first_diff := Some m)
      fmt
  in
  if s.Sim.patterns <> total then fail "patterns %d, boxed %d" s.Sim.patterns total;
  for b = 0 to (1 lsl wb) - 1 do
    for a = 0 to (1 lsl wa) - 1 do
      let want = old_tt a b in
      if s.Sim.table.((b lsl wa) lor a) <> want || new_tt a b <> want then
        fail "pattern (%d, %d): sweep %d, boxed %d" a b
          s.Sim.table.((b lsl wa) lor a) want
    done
  done;
  Array.iteri
    (fun i want ->
      if s.Sim.ones.(i) <> want then
        fail "node %d one-count: sweep %d, boxed %d" i s.Sim.ones.(i) want)
    counts;
  List.iter
    (fun samples ->
      let seed = samples + inputs in
      let want = Boxed.monte_carlo_signal_probabilities ~seed ~samples c in
      let got = Power.monte_carlo_signal_probabilities ~seed ~samples c in
      if got <> want then fail "monte-carlo estimate differs at %d samples" samples)
    mc_samples;
  match !first_diff with None -> Ok () | Some m -> Error m

let seed_and_registry_netlists () =
  [
    ("exact8", Multipliers.unsigned_array ~bits:8);
    ("trunc4", Multipliers.truncated ~bits:8 ~cut:4);
    ("trunc6", Multipliers.truncated ~bits:8 ~cut:6);
    ("trunc8", Multipliers.truncated ~bits:8 ~cut:8);
    ("trunc10", Multipliers.truncated ~bits:8 ~cut:10);
    ("bam_h2v6", Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6);
    ("bam_h3v8", Multipliers.broken_array ~bits:8 ~hbl:3 ~vbl:8);
    ("bam_h4v10", Multipliers.broken_array ~bits:8 ~hbl:4 ~vbl:10);
  ]
  @ List.filter_map
      (fun (e : Ax_arith.Registry.entry) ->
        Option.map (fun make -> (e.Ax_arith.Registry.name, make ())) e.netlist)
      (Ax_arith.Registry.all ())

let test_sweep_oracle_netlists () =
  let subjects = seed_and_registry_netlists () in
  check_int "eight seeds and four registry netlists" 12 (List.length subjects);
  check_bool "signed Baugh-Wooley among them" true
    (List.exists (fun (_, m) -> m.Multipliers.signed) subjects);
  List.iter
    (fun (name, m) ->
      match sweep_vs_boxed ~mc_samples:[ 16384 ] m.Multipliers.circuit with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    subjects

let prop_sweep_matches_boxed =
  QCheck.Test.make ~name:"sweep = boxed loops on random circuits" ~count:150
    (Random_circuit.arbitrary ~max_inputs:14) (fun spec ->
      match sweep_vs_boxed (Random_circuit.build spec) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* --- verilog --- *)

let test_verilog_structure () =
  let m = Multipliers.unsigned_array ~bits:2 in
  let v = Verilog.to_string m.Multipliers.circuit in
  let contains needle =
    let nl = String.length needle and hl = String.length v in
    let rec go i = i + nl <= hl && (String.sub v i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "module header" true (contains "module mul2u_exact(");
  check_bool "declares input a_0" true (contains "input a_0;");
  check_bool "declares output p_3" true (contains "output p_3;");
  check_bool "has assigns" true (contains "assign");
  check_bool "endmodule" true (contains "endmodule")

let test_verilog_simulation_consistency () =
  (* The Verilog text is not executed here, but every output must be
     driven: check each declared output appears on an assign LHS. *)
  let m = Multipliers.truncated ~bits:4 ~cut:3 in
  let v = Verilog.to_string m.Multipliers.circuit in
  List.iter
    (fun (label, _) ->
      let needle = Printf.sprintf "assign %s =" label in
      let nl = String.length needle and hl = String.length v in
      let rec go i =
        i + nl <= hl && (String.sub v i nl = needle || go (i + 1))
      in
      if not (go 0) then Alcotest.failf "output %s is not driven" label)
    (Circuit.outputs m.Multipliers.circuit)

let test_testbench_generation () =
  let m = Multipliers.truncated ~bits:4 ~cut:3 in
  let reference = Multipliers.behavioural m in
  let tb = Verilog.testbench ~vectors:16 ~seed:3 ~reference m in
  let contains needle =
    let nl = String.length needle and hl = String.length tb in
    let rec go i = i + nl <= hl && (String.sub tb i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "module header" true (contains "module mul4u_trunc3_tb;");
  check_bool "instantiates dut" true (contains "mul4u_trunc3 dut");
  check_bool "pass message" true (contains "PASS: 16 vectors");
  check_bool "self-checking" true (contains "if (p !== expect_v)");
  (* 16 check() calls with correct expected values: spot-check one. *)
  let count_checks = ref 0 in
  String.split_on_char '\n' tb
  |> List.iter (fun line ->
         if String.length line > 9 && String.sub line 4 6 = "check(" then
           incr count_checks);
  check_int "vector count" 16 !count_checks;
  check_bool "deterministic" true
    (tb = Verilog.testbench ~vectors:16 ~seed:3 ~reference m)

(* --- qcheck properties --- *)

let prop_pruned_le_exact =
  QCheck.Test.make ~name:"pruned array multiplier never exceeds exact"
    ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let m = Multipliers.truncated ~bits:8 ~cut:6 in
      let f = Multipliers.behavioural m in
      f a b <= a * b)

let prop_mul_commutative_exact =
  QCheck.Test.make ~name:"exact netlist multiplier is commutative" ~count:200
    QCheck.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let m = Multipliers.unsigned_array ~bits:8 in
      let f = Multipliers.behavioural m in
      f a b = f b a)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_pruned_le_exact; prop_mul_commutative_exact ]
  in
  let sweep_props =
    List.map QCheck_alcotest.to_alcotest [ prop_sweep_matches_boxed ]
  in
  Alcotest.run "ax_netlist"
    [
      ( "circuit",
        [
          Alcotest.test_case "structural hashing" `Quick
            test_structural_hashing;
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "duplicate output rejected" `Quick
            test_duplicate_output_rejected;
          Alcotest.test_case "foreign signal rejected" `Quick
            test_foreign_signal_rejected;
          Alcotest.test_case "levelize" `Quick test_levelize;
        ] );
      ( "sim",
        [
          Alcotest.test_case "eval truth table" `Quick test_eval_truth_table;
          Alcotest.test_case "eval wrong arity" `Quick test_eval_wrong_arity;
          Alcotest.test_case "sweep matches eval" `Quick
            test_sweep_matches_eval;
          Alcotest.test_case "eval_unsigned adder" `Quick test_eval_unsigned;
        ] );
      ( "adders",
        [
          Alcotest.test_case "full adder exhaustive" `Quick
            test_full_adder_exhaustive;
          Alcotest.test_case "carry-save constants" `Quick
            test_carry_save_reduce_constants;
          Alcotest.test_case "kogge-stone exhaustive" `Slow
            test_kogge_stone_exhaustive;
          Alcotest.test_case "kogge-stone depth" `Quick
            test_kogge_stone_shallower_than_ripple;
          Alcotest.test_case "lower-or adder exhaustive" `Slow
            test_lower_or_adder;
          Alcotest.test_case "lower-or with 0 approx bits" `Quick
            test_lower_or_zero_is_exact;
          Alcotest.test_case "lower-or cuts area" `Quick
            test_lower_or_cheaper_than_exact;
        ] );
      ( "multipliers",
        [
          Alcotest.test_case "mul8u exhaustive" `Slow
            test_unsigned_array_exhaustive;
          Alcotest.test_case "mul8s Baugh-Wooley exhaustive" `Slow
            test_baugh_wooley_exhaustive;
          Alcotest.test_case "truncation error model" `Slow
            test_truncated_properties;
          Alcotest.test_case "cut=0 is exact" `Quick
            test_truncated_cut0_is_exact;
          Alcotest.test_case "bam(0,0) is exact" `Quick
            test_broken_array_zero_breaks_is_exact;
          Alcotest.test_case "bam reduces area" `Quick
            test_broken_array_smaller_area;
          Alcotest.test_case "bad parameters rejected" `Quick
            test_bad_parameters_rejected;
        ] );
      ( "power",
        [
          Alcotest.test_case "report sane" `Quick test_power_report_sane;
          Alcotest.test_case "signal probabilities" `Quick
            test_signal_probabilities;
          Alcotest.test_case "delay monotone in width" `Quick
            test_delay_monotone_in_depth;
          Alcotest.test_case "reconvergent fanout" `Quick
            test_power_reconvergent_fanout;
          Alcotest.test_case "monte-carlo cross-check" `Slow
            test_power_monte_carlo_cross_check;
          Alcotest.test_case "pdp ranking pinned" `Slow
            test_power_pdp_ranking_pinned;
          Alcotest.test_case "analyze guards" `Quick
            test_power_analyze_guards;
          Alcotest.test_case "analyze past 32 outputs" `Quick
            test_power_many_outputs;
        ] );
      ( "sweep",
        Alcotest.test_case "seed and registry netlists" `Slow
          test_sweep_oracle_netlists
        :: sweep_props );
      ( "opt",
        [
          Alcotest.test_case "strip_dead interface & equivalence" `Slow
            test_strip_dead_interface_and_equivalence;
          Alcotest.test_case "strip_dead dead-cone fixture" `Quick
            test_strip_dead_fixture;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "outputs driven" `Quick
            test_verilog_simulation_consistency;
          Alcotest.test_case "testbench generation" `Quick
            test_testbench_generation;
        ] );
      ("properties", qsuite);
    ]
