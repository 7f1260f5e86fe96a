(* Golden-output tests for the static-analysis layer (lib/analysis):
   seeded-broken graphs, LUTs and netlists must produce exactly the
   documented rule ids, and every registry model / multiplier must
   analyze clean (no errors, no warnings — infos are allowed). *)

module D = Ax_analysis.Diagnostic
module Check = Ax_analysis.Check
module Graph_check = Ax_analysis.Graph_check
module Quant_check = Ax_analysis.Quant_check
module Netlist_check = Ax_analysis.Netlist_check
module Graph = Ax_nn.Graph
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Axconv = Ax_nn.Axconv
module Shape = Ax_tensor.Shape
module Rng = Ax_tensor.Rng
module Registry = Ax_arith.Registry
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness
module Circuit = Ax_netlist.Circuit
module Bus = Ax_netlist.Bus
module Multipliers = Ax_netlist.Multipliers

let rule_ids ds = List.sort_uniq String.compare (List.map (fun d -> d.D.rule) ds)

let check_rules name expected ds =
  Alcotest.(check (list string)) name
    (List.sort_uniq String.compare expected)
    (rule_ids ds)

let assert_has_rule name rule ds =
  if not (List.mem rule (rule_ids ds)) then
    Alcotest.failf "%s: expected rule %s, got [%s]" name rule
      (String.concat "; " (rule_ids ds))

let assert_clean name ds =
  let noisy = D.errors ds @ D.warnings ds in
  if noisy <> [] then
    Alcotest.failf "%s: expected clean, got:\n%s" name
      (String.concat "\n" (List.map D.to_string noisy))

(* --- fixtures ------------------------------------------------------- *)

let lut = Registry.lut (Registry.find_exn "mul8u_trunc8")

let filter ?(kh = 3) ?(kw = 3) ?(in_c = 3) ?(out_c = 4) () =
  let f = Filter.create ~kh ~kw ~in_c ~out_c in
  Filter.fill_he_normal (Rng.create 7) f;
  f

(* A Fig. 1-shaped Ax_conv2d graph assembled from raw nodes so each test
   can break exactly one edge.  Layout:
     0 Input, 1 Min, 2 Max, 3 Const fmin, 4 Const fmax, 5 Ax_conv2d *)
let ax_graph ?(swap = false) ?config ?f () =
  let f = match f with Some f -> f | None -> filter () in
  let fmin, fmax = Filter.min_max f in
  let config = match config with Some c -> c | None -> Axconv.make_config lut in
  let conv =
    Graph.Ax_conv2d { filter = f; bias = None; spec = Conv_spec.default; config }
  in
  let range = if swap then [ 0; 2; 1; 3; 4 ] else [ 0; 1; 2; 3; 4 ] in
  Graph.of_nodes_unchecked ~output:5
    [
      { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
      { Graph.id = 1; name = "min"; op = Graph.Min_reduce; inputs = [ 0 ] };
      { Graph.id = 2; name = "max"; op = Graph.Max_reduce; inputs = [ 0 ] };
      { Graph.id = 3; name = "fmin"; op = Graph.Const_scalar fmin; inputs = [] };
      { Graph.id = 4; name = "fmax"; op = Graph.Const_scalar fmax; inputs = [] };
      { Graph.id = 5; name = "conv"; op = conv; inputs = range };
    ]

let input_shape = Shape.make ~n:1 ~h:8 ~w:8 ~c:3

(* --- graph verifier goldens ---------------------------------------- *)

let test_well_formed_fixture_is_clean () =
  let ds = Graph_check.check ~input:input_shape (ax_graph ()) in
  check_rules "well-formed Ax graph" [] ds

let test_dangling_input () =
  let g =
    Graph.of_nodes_unchecked ~output:1
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "r"; op = Graph.Relu; inputs = [ 9 ] };
      ]
  in
  check_rules "unknown input id" [ "graph/dangling-input" ]
    (Graph_check.check g)

let test_poisoning_one_edge_one_finding () =
  (* The broken reference poisons its consumers: the downstream Relu and
     Softmax must not add cascading findings. *)
  let g =
    Graph.of_nodes_unchecked ~output:3
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "r"; op = Graph.Relu; inputs = [ 9 ] };
        { Graph.id = 2; name = "r2"; op = Graph.Relu; inputs = [ 1 ] };
        { Graph.id = 3; name = "sm"; op = Graph.Softmax; inputs = [ 2 ] };
      ]
  in
  let ds = Graph_check.check ~input:input_shape g in
  check_rules "poisoned consumers stay silent" [ "graph/dangling-input" ] ds;
  Alcotest.(check int) "exactly one finding" 1 (List.length ds)

let test_arity () =
  let g =
    Graph.of_nodes_unchecked ~output:1
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "r"; op = Graph.Relu; inputs = [ 0; 0 ] };
      ]
  in
  check_rules "wrong arity" [ "graph/arity" ] (Graph_check.check g)

let test_no_input_and_scalar_output () =
  let g =
    Graph.of_nodes_unchecked ~output:0
      [ { Graph.id = 0; name = "c"; op = Graph.Const_scalar 1.; inputs = [] } ]
  in
  check_rules "const-only graph" [ "graph/no-input"; "graph/scalar-output" ]
    (Graph_check.check g)

let test_dead_node () =
  let g =
    Graph.of_nodes_unchecked ~output:1
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "live"; op = Graph.Relu; inputs = [ 0 ] };
        { Graph.id = 2; name = "dead"; op = Graph.Relu; inputs = [ 0 ] };
      ]
  in
  check_rules "unreachable node" [ "graph/dead-node" ] (Graph_check.check g)

let test_swapped_range () =
  check_rules "min/max swapped" [ "ax/swapped-range" ]
    (Graph_check.check ~input:input_shape (ax_graph ~swap:true ()))

let test_wrong_tensor () =
  (* Min reduces over a Relu of the data while the conv reads the raw
     input — stale range, the Fig. 1 transform never produces this. *)
  let f = filter () in
  let fmin, fmax = Filter.min_max f in
  let conv =
    Graph.Ax_conv2d
      {
        filter = f;
        bias = None;
        spec = Conv_spec.default;
        config = Axconv.make_config lut;
      }
  in
  let g =
    Graph.of_nodes_unchecked ~output:6
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "relu"; op = Graph.Relu; inputs = [ 0 ] };
        { Graph.id = 2; name = "min"; op = Graph.Min_reduce; inputs = [ 1 ] };
        { Graph.id = 3; name = "max"; op = Graph.Max_reduce; inputs = [ 0 ] };
        { Graph.id = 4; name = "fmin"; op = Graph.Const_scalar fmin; inputs = [] };
        { Graph.id = 5; name = "fmax"; op = Graph.Const_scalar fmax; inputs = [] };
        { Graph.id = 6; name = "conv"; op = conv; inputs = [ 0; 2; 3; 4; 5 ] };
      ]
  in
  assert_has_rule "wrong tensor" "ax/wrong-tensor"
    (Graph_check.check ~input:input_shape g)

let test_const_data_range_warns () =
  let f = filter () in
  let fmin, fmax = Filter.min_max f in
  let conv =
    Graph.Ax_conv2d
      {
        filter = f;
        bias = None;
        spec = Conv_spec.default;
        config = Axconv.make_config lut;
      }
  in
  let nodes lo hi =
    [
      { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
      { Graph.id = 1; name = "lo"; op = Graph.Const_scalar lo; inputs = [] };
      { Graph.id = 2; name = "hi"; op = Graph.Const_scalar hi; inputs = [] };
      { Graph.id = 3; name = "fmin"; op = Graph.Const_scalar fmin; inputs = [] };
      { Graph.id = 4; name = "fmax"; op = Graph.Const_scalar fmax; inputs = [] };
      { Graph.id = 5; name = "conv"; op = conv; inputs = [ 0; 1; 2; 3; 4 ] };
    ]
  in
  (* Calibrated-offline constants: a warning, not an error. *)
  let ds =
    Graph_check.check ~input:input_shape
      (Graph.of_nodes_unchecked ~output:5 (nodes (-1.) 1.))
  in
  check_rules "const data range" [ "ax/const-input-range" ] ds;
  Alcotest.(check bool) "warning only" false (D.has_errors ds);
  (* Inverted constants: an empty range is an error. *)
  check_rules "inverted const range" [ "ax/empty-range" ]
    (Graph_check.check ~input:input_shape
       (Graph.of_nodes_unchecked ~output:5 (nodes 1. (-1.))))

let test_tensor_as_scalar () =
  let f = filter () in
  let fmin, fmax = Filter.min_max f in
  let conv =
    Graph.Ax_conv2d
      {
        filter = f;
        bias = None;
        spec = Conv_spec.default;
        config = Axconv.make_config lut;
      }
  in
  let g =
    Graph.of_nodes_unchecked ~output:5
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        { Graph.id = 1; name = "relu"; op = Graph.Relu; inputs = [ 0 ] };
        { Graph.id = 2; name = "max"; op = Graph.Max_reduce; inputs = [ 0 ] };
        { Graph.id = 3; name = "fmin"; op = Graph.Const_scalar fmin; inputs = [] };
        { Graph.id = 4; name = "fmax"; op = Graph.Const_scalar fmax; inputs = [] };
        (* Relu (a tensor) wired into the in_min scalar port. *)
        { Graph.id = 5; name = "conv"; op = conv; inputs = [ 0; 1; 2; 3; 4 ] };
      ]
  in
  assert_has_rule "tensor into scalar port" "graph/tensor-as-scalar"
    (Graph_check.check g)

let test_shape_mismatch () =
  (* Filter wants 3 channels; feed a 1-channel input shape. *)
  let ds =
    Graph_check.check
      ~input:(Shape.make ~n:1 ~h:8 ~w:8 ~c:1)
      (ax_graph ())
  in
  check_rules "channel mismatch" [ "graph/shape-mismatch" ] ds

let test_bias_arity () =
  let f = filter () in
  let g =
    Graph.of_nodes_unchecked ~output:1
      [
        { Graph.id = 0; name = "input"; op = Graph.Input; inputs = [] };
        {
          Graph.id = 1;
          name = "conv";
          op =
            Graph.Conv2d
              { filter = f; bias = Some [| 0. |]; spec = Conv_spec.default };
          inputs = [ 0 ];
        };
      ]
  in
  check_rules "bias length" [ "graph/bias-arity" ]
    (Graph_check.check ~input:input_shape g)

(* Each graph breaks one shape rule at its node "bad", which feeds a
   Softmax output.  The builder accepts all of them; the verifier must
   report exactly one shape mismatch at "bad", and the two other shape
   readers must refuse the graph with the same message. *)
let test_every_shape_rule () =
  let input = Shape.make ~n:1 ~h:4 ~w:4 ~c:2 in
  (* input [-> 2x2 pool] -> bad -> out; an Add joins input and pool. *)
  let graph ?(pooled = false) op =
    let b = Graph.builder () in
    let i = Graph.add b ~name:"input" Graph.Input [] in
    let inputs =
      if pooled then
        let pool = Graph.Max_pool { size = 2; stride = 2 } in
        [ i; Graph.add b ~name:"pool" pool [ i ] ]
      else [ i ]
    in
    let bad = Graph.add b ~name:"bad" op inputs in
    let out = Graph.add b ~name:"out" Graph.Softmax [ bad ] in
    (bad, Graph.finalize b ~output:out)
  in
  let dense =
    Graph.Dense
      {
        weights = Ax_tensor.Matrix.create ~rows:7 ~cols:3;
        bias = Array.make 3 0.;
      }
  in
  let conv =
    Graph.Conv2d { filter = filter (); bias = None; spec = Conv_spec.default }
  in
  List.iter
    (fun (name, (bad, g)) ->
      let message =
        match Graph_check.check ~input g with
        | [ { D.rule = "graph/shape-mismatch";
              location = D.Graph_node { id; _ };
              message;
              _;
            } ]
          when id = bad ->
          message
        | ds ->
          Alcotest.failf
            "%s: expected one shape mismatch at node %d, got:\n%s" name bad
            (String.concat "\n" (List.map D.to_string ds))
      in
      let refuses reader f =
        match f () with
        | exception Invalid_argument m ->
          Alcotest.(check string) (name ^ ": " ^ reader) message m
        | () -> Alcotest.failf "%s: %s accepted the graph" name reader
      in
      refuses "Graph.infer_shapes" (fun () ->
          ignore (Graph.infer_shapes g ~input));
      refuses "Exec.output_shape" (fun () ->
          ignore (Ax_nn.Exec.output_shape g ~input)))
    [
      ("dense rows", graph dense);
      ("residual join", graph ~pooled:true Graph.Add);
      ( "batch-norm length",
        graph (Graph.Batch_norm { scale = [| 1. |]; shift = [| 0. |] }) );
      ( "shortcut shrinks",
        graph (Graph.Shortcut_pad { stride = 1; out_c = 1 }) );
      ("zero pool stride", graph (Graph.Max_pool { size = 2; stride = 0 }));
      ( "zero shortcut stride",
        graph (Graph.Shortcut_pad { stride = 0; out_c = 2 }) );
      ("pool window", graph (Graph.Max_pool { size = 5; stride = 1 }));
      ("conv channels", graph conv);
    ]

(* --- quantization goldens ------------------------------------------ *)

let test_accumulator_overflow () =
  (* 7x7x1024 reduction: N = 50176 taps; worst-case Eq. 4 interval
     cannot fit a signed 32-bit accumulator. *)
  let f = Filter.create ~kh:7 ~kw:7 ~in_c:1024 ~out_c:1 in
  let g = ax_graph ~f () in
  let ds, layers = Quant_check.check g in
  assert_has_rule "overflow" "quant/acc-overflow" ds;
  Alcotest.(check bool) "error severity" true (D.has_errors ds);
  match layers with
  | [ l ] ->
    Alcotest.(check int) "taps" (7 * 7 * 1024) l.Quant_check.taps;
    Alcotest.(check bool) "negative headroom" true
      (l.Quant_check.headroom_bits < 0)
  | _ -> Alcotest.fail "expected one layer row"

let test_wrapping_accumulator_warns () =
  let config =
    Axconv.make_config ~accumulator:(Ax_nn.Accumulator.Wrapping 16) lut
  in
  let ds, _ = Quant_check.check (ax_graph ~config ()) in
  assert_has_rule "wrap" "quant/acc-wrap" ds;
  Alcotest.(check bool) "warning only" false (D.has_errors ds)

let test_chunk_size_golden () =
  let config = { (Axconv.make_config lut) with Axconv.chunk_size = 0 } in
  let ds, _ = Quant_check.check (ax_graph ~config ()) in
  assert_has_rule "chunk" "quant/chunk-size" ds

let test_drum_lut_overshoot_is_info () =
  let ds = Quant_check.check_lut (Registry.lut (Registry.find_exn "mul8s_drum4")) in
  check_rules "drum overshoot" [ "quant/product-overflow" ] ds;
  assert_clean "info only" ds

let test_resnet8_headroom_golden () =
  let g =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8"
      (Ax_models.Resnet.build ~depth:8 ())
  in
  let ds, layers = Quant_check.check g in
  assert_clean "resnet-8 quant" ds;
  Alcotest.(check int) "one row per conv"
    (List.length (Graph.conv_layers g))
    (List.length layers);
  (match layers with
  | first :: _ ->
    Alcotest.(check int) "conv0 headroom" 9 first.Quant_check.headroom_bits
  | [] -> Alcotest.fail "no layers");
  let min_headroom =
    List.fold_left
      (fun acc l -> min acc l.Quant_check.headroom_bits)
      max_int layers
  in
  Alcotest.(check int) "tightest layer headroom" 4 min_headroom

(* --- netlist goldens ------------------------------------------------ *)

let test_no_outputs () =
  let c = Circuit.create () in
  let x = Bus.input c "x" 2 in
  ignore (Circuit.and_ c x.(0) x.(1));
  assert_has_rule "no outputs" "net/no-outputs" (Netlist_check.check_circuit c)

let test_unused_input_is_info () =
  let c = Circuit.create () in
  let x = Bus.input c "x" 2 in
  Circuit.output c "y" (Circuit.not_ c x.(0));
  let ds = Netlist_check.check_circuit c in
  check_rules "unused input" [ "net/unused-input" ] ds;
  assert_clean "info only" ds

let test_width_mismatch () =
  let m =
    match (Registry.find_exn "mul8u_nl_exact").Registry.netlist with
    | Some make -> make ()
    | None -> Alcotest.fail "mul8u_nl_exact lost its netlist"
  in
  let broken = { m with Multipliers.width_a = 4 } in
  assert_has_rule "declared width" "net/width-mismatch"
    (Netlist_check.check_multiplier broken)

let test_lut_mismatch_golden () =
  (* The truncated netlist against the exact table: certification must
     refute with net/lut-mismatch. *)
  let m =
    match (Registry.find_exn "mul8u_nl_trunc8").Registry.netlist with
    | Some make -> make ()
    | None -> Alcotest.fail "mul8u_nl_trunc8 lost its netlist"
  in
  let exact = Lut.make ~signedness:S.Unsigned Ax_arith.Exact.mul8u in
  let ds = Netlist_check.certify_lut ~lut:exact m in
  assert_has_rule "refuted" "net/lut-mismatch" ds;
  Alcotest.(check bool) "error severity" true (D.has_errors ds)

(* (product-bit label, disagreeing operand pairs) of each finding. *)
let mismatch_counts ds =
  List.map
    (fun d ->
      Alcotest.(check string) "rule" "net/lut-mismatch" d.D.rule;
      let label =
        match d.D.location with
        | D.Netlist_signal { label; _ } -> label
        | _ -> Alcotest.fail "mismatch not located on a product bit"
      in
      Scanf.sscanf d.D.message "product bit %d differs from the LUT on %d of 65536"
        (fun bit count ->
          Alcotest.(check string) "label names the bit" (Printf.sprintf "p_%d" bit) label;
          (label, count)))
    ds

let test_lut_mismatch_counts_pinned () =
  (* The certificate's exact refutation of mul8u_nl_trunc8 against the
     exact table: one finding per product bit, each with its pinned
     count of disagreeing operand pairs. *)
  let m = Option.get (Registry.find_exn "mul8u_nl_trunc8").Registry.netlist () in
  let exact = Lut.make ~signedness:S.Unsigned Ax_arith.Exact.mul8u in
  let expected =
    [ 16384; 24576; 28672; 30720; 31744; 32256; 32512; 32640; 31672; 32658;
      20927; 10450; 4828; 2201; 840; 230 ]
  in
  Alcotest.(check (list (pair string int))) "per-bit mismatch counts"
    (List.mapi (fun bit n -> (Printf.sprintf "p_%d" bit, n)) expected)
    (mismatch_counts (Netlist_check.certify_lut ~lut:exact m))

let test_one_flipped_entry_refuted () =
  (* One bit of one entry is the smallest lie a LUT can tell; the
     certificate must locate it on its product bit and count it once. *)
  let m = Option.get (Registry.find_exn "mul8u_nl_exact").Registry.netlist () in
  let lut = Lut.make ~signedness:S.Unsigned Ax_arith.Exact.mul8u in
  let i = Lut.raw_index 173 58 in
  Lut.set_raw lut i (Lut.get_raw lut i lxor (1 lsl 9));
  Alcotest.(check (list (pair string int))) "one finding on p_9" [ ("p_9", 1) ]
    (mismatch_counts (Netlist_check.certify_lut ~lut m))

(* --- registry sweeps: everything shipped analyzes clean ------------- *)

let test_registry_models_clean () =
  List.iter
    (fun (name, build, shape) ->
      let g = build () in
      let input = shape ~batch:1 in
      assert_clean (name ^ " accurate") (fst (Check.graph ~input g));
      let approx =
        Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" g
      in
      assert_clean (name ^ " approximated") (fst (Check.graph ~input approx)))
    [
      ("lenet", (fun () -> Ax_models.Lenet.build ()), Ax_models.Lenet.input_shape);
      ( "mobilenet",
        (fun () -> Ax_models.Mobilenet.build ()),
        Ax_models.Mobilenet.input_shape );
      ( "resnet-8",
        (fun () -> Ax_models.Resnet.build ~depth:8 ()),
        Ax_models.Resnet.input_shape );
    ]

let test_registry_multipliers_clean () =
  List.iter
    (fun e -> assert_clean e.Registry.name (Check.registry_entry e))
    (Registry.all ())

(* --- pre-flight ----------------------------------------------------- *)

let test_assert_runnable_rejects () =
  match Check.assert_runnable ~input:input_shape (ax_graph ~swap:true ()) with
  | () -> Alcotest.fail "expected Rejected"
  | exception D.Rejected ds ->
    assert_has_rule "rejection carries finding" "ax/swapped-range" ds

let test_emulator_preflight () =
  let input = Ax_tensor.Tensor.create input_shape in
  match
    Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm
      (ax_graph ~swap:true ()) input
  with
  | _ -> Alcotest.fail "expected Rejected"
  | exception D.Rejected _ -> ()

(* A graph that ran once is checked again for a new input shape: the
   second run must be rejected at the door, not fail inside a conv. *)
let test_preflight_rechecks_new_shape () =
  let g =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8"
      (Ax_models.Lenet.build ())
  in
  let run input =
    Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm g
      (Ax_tensor.Tensor.create input)
  in
  ignore (run (Ax_models.Lenet.input_shape ~batch:1));
  match run (Shape.make ~n:1 ~h:32 ~w:32 ~c:3) with
  | _ -> Alcotest.fail "expected Rejected"
  | exception D.Rejected ds ->
    Alcotest.(check bool) "error findings carried" true (ds <> [])

let test_every_rule_id_is_well_formed () =
  (* The catalogue is the contract: ids are family/slug, descriptions
     non-empty, ids unique, and [make] round-trips each severity. *)
  let ids = List.map (fun (id, _, _) -> id) D.rules in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (id, sev, descr) ->
      Alcotest.(check bool) (id ^ " has family") true (String.contains id '/');
      Alcotest.(check bool) (id ^ " described") true (String.length descr > 0);
      let d = D.make ~rule:id "x" in
      Alcotest.(check string) (id ^ " severity") (D.severity_to_string sev)
        (D.severity_to_string d.D.severity))
    D.rules

let () =
  Alcotest.run "ax_analysis"
    [
      ( "graph goldens",
        [
          Alcotest.test_case "well-formed fixture clean" `Quick
            test_well_formed_fixture_is_clean;
          Alcotest.test_case "dangling input" `Quick test_dangling_input;
          Alcotest.test_case "poisoning: one edge, one finding" `Quick
            test_poisoning_one_edge_one_finding;
          Alcotest.test_case "arity" `Quick test_arity;
          Alcotest.test_case "no input / scalar output" `Quick
            test_no_input_and_scalar_output;
          Alcotest.test_case "dead node" `Quick test_dead_node;
          Alcotest.test_case "swapped range" `Quick test_swapped_range;
          Alcotest.test_case "wrong tensor" `Quick test_wrong_tensor;
          Alcotest.test_case "const data range" `Quick
            test_const_data_range_warns;
          Alcotest.test_case "tensor as scalar" `Quick test_tensor_as_scalar;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "bias arity" `Quick test_bias_arity;
          Alcotest.test_case "every shape rule" `Quick
            test_every_shape_rule;
        ] );
      ( "quantization goldens",
        [
          Alcotest.test_case "accumulator overflow" `Quick
            test_accumulator_overflow;
          Alcotest.test_case "wrapping accumulator warns" `Quick
            test_wrapping_accumulator_warns;
          Alcotest.test_case "chunk size" `Quick test_chunk_size_golden;
          Alcotest.test_case "drum overshoot is info" `Quick
            test_drum_lut_overshoot_is_info;
          Alcotest.test_case "resnet-8 headroom" `Quick
            test_resnet8_headroom_golden;
        ] );
      ( "netlist goldens",
        [
          Alcotest.test_case "no outputs" `Quick test_no_outputs;
          Alcotest.test_case "unused input is info" `Quick
            test_unused_input_is_info;
          Alcotest.test_case "width mismatch" `Quick test_width_mismatch;
          Alcotest.test_case "LUT mismatch refuted" `Quick
            test_lut_mismatch_golden;
          Alcotest.test_case "LUT mismatch counts pinned" `Quick
            test_lut_mismatch_counts_pinned;
          Alcotest.test_case "one flipped LUT bit refuted" `Quick
            test_one_flipped_entry_refuted;
        ] );
      ( "registry sweeps",
        [
          Alcotest.test_case "models analyze clean" `Quick
            test_registry_models_clean;
          Alcotest.test_case "multipliers analyze clean" `Slow
            test_registry_multipliers_clean;
        ] );
      ( "pre-flight",
        [
          Alcotest.test_case "assert_runnable rejects" `Quick
            test_assert_runnable_rejects;
          Alcotest.test_case "Emulator.run pre-flight" `Quick
            test_emulator_preflight;
          Alcotest.test_case "new input shape re-checked" `Quick
            test_preflight_rechecks_new_shape;
          Alcotest.test_case "rule catalogue well-formed" `Quick
            test_every_rule_id_is_well_formed;
        ] );
    ]
