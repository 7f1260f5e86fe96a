(* Graph IR, the Fig. 1 transform, the executor and the layer zoo. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Matrix = Ax_tensor.Matrix
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Graph = Ax_nn.Graph
module Nn_error = Ax_nn.Nn_error
module Transform = Ax_nn.Transform
module Exec = Ax_nn.Exec
module Layers = Ax_nn.Layers
module Conv_float = Ax_nn.Conv_float
module Axconv = Ax_nn.Axconv
module Profile = Ax_nn.Profile
module Registry = Ax_arith.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-5))

let random_filter ~seed ~kh ~kw ~in_c ~out_c =
  let f = Filter.create ~kh ~kw ~in_c ~out_c in
  Filter.fill_he_normal (Rng.create seed) f;
  f

let exact_config () =
  Axconv.make_config (Registry.lut (Registry.find_exn "mul8s_exact"))

(* A single-conv graph, as in Fig. 1 (left). *)
let single_conv_graph () =
  let b = Graph.builder () in
  let input = Graph.add b ~name:"input" Graph.Input [] in
  let filter = random_filter ~seed:1 ~kh:3 ~kw:3 ~in_c:3 ~out_c:4 in
  let conv =
    Graph.add b ~name:"conv1"
      (Graph.Conv2d { filter; bias = None; spec = Conv_spec.default })
      [ input ]
  in
  let relu = Graph.add b ~name:"relu1" Graph.Relu [ conv ] in
  Graph.finalize b ~output:relu

(* --- layers --- *)

let test_relu () =
  let t = Tensor.of_array (Shape.make ~n:1 ~h:1 ~w:4 ~c:1) [| -1.; 0.; 2.; -3. |] in
  Alcotest.(check (array (float 1e-9))) "relu" [| 0.; 0.; 2.; 0. |]
    (Tensor.to_array (Layers.relu t))

let test_max_pool () =
  let t =
    Tensor.of_array (Shape.make ~n:1 ~h:4 ~w:4 ~c:1)
      (Array.init 16 float_of_int)
  in
  let p = Layers.max_pool ~size:2 ~stride:2 t in
  Alcotest.(check (array (float 1e-9))) "2x2/2 pool" [| 5.; 7.; 13.; 15. |]
    (Tensor.to_array p)

let test_global_avg_pool () =
  let t =
    Tensor.of_array (Shape.make ~n:2 ~h:2 ~w:2 ~c:1)
      [| 1.; 2.; 3.; 4.; 10.; 20.; 30.; 40. |]
  in
  let p = Layers.global_avg_pool t in
  Alcotest.(check (array (float 1e-9))) "gap" [| 2.5; 25. |]
    (Tensor.to_array p)

let test_batch_norm_and_fold () =
  let t = Tensor.of_array (Shape.make ~n:1 ~h:1 ~w:2 ~c:2) [| 1.; 2.; 3.; 4. |] in
  let out = Layers.batch_norm ~scale:[| 2.; 10. |] ~shift:[| 0.; 1. |] t in
  Alcotest.(check (array (float 1e-9))) "bn" [| 2.; 21.; 6.; 41. |]
    (Tensor.to_array out);
  let scale, shift =
    Layers.fold_batch_norm ~gamma:[| 1. |] ~beta:[| 0.5 |] ~mean:[| 2. |]
      ~variance:[| 4. |] ~epsilon:0.
  in
  check_float "folded scale" 0.5 scale.(0);
  check_float "folded shift" (-0.5) shift.(0)

let test_dense () =
  let t = Tensor.of_array (Shape.make ~n:1 ~h:1 ~w:1 ~c:3) [| 1.; 2.; 3. |] in
  let weights = Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let out = Layers.dense ~weights ~bias:[| 0.; 10. |] t in
  Alcotest.(check (array (float 1e-9))) "dense" [| 4.; 15. |]
    (Tensor.to_array out)

let test_softmax_properties () =
  let t =
    Tensor.of_array (Shape.make ~n:2 ~h:1 ~w:1 ~c:3)
      [| 1.; 2.; 3.; 100.; 100.; 100. |]
  in
  let s = Layers.softmax t in
  let row0 = [| Tensor.get s ~n:0 ~h:0 ~w:0 ~c:0; Tensor.get s ~n:0 ~h:0 ~w:0 ~c:1; Tensor.get s ~n:0 ~h:0 ~w:0 ~c:2 |] in
  check_float "sums to 1" 1. (Array.fold_left ( +. ) 0. row0);
  check_bool "monotone" true (row0.(0) < row0.(1) && row0.(1) < row0.(2));
  check_float "uniform on equal logits" (1. /. 3.)
    (Tensor.get s ~n:1 ~h:0 ~w:0 ~c:0)

let test_argmax_channels () =
  let t =
    Tensor.of_array (Shape.make ~n:2 ~h:1 ~w:1 ~c:3)
      [| 0.1; 0.7; 0.2; 0.9; 0.05; 0.05 |]
  in
  Alcotest.(check (array int)) "argmax" [| 1; 0 |] (Layers.argmax_channels t)

let test_shortcut_pad () =
  let t =
    Tensor.of_array (Shape.make ~n:1 ~h:4 ~w:4 ~c:1)
      (Array.init 16 float_of_int)
  in
  let out = Layers.shortcut_pad ~stride:2 ~out_c:3 t in
  let s = Tensor.shape out in
  check_int "h halved" 2 Shape.(s.h);
  check_int "channels padded" 3 Shape.(s.c);
  check_float "subsampled (0,0)" 0. (Tensor.get out ~n:0 ~h:0 ~w:0 ~c:0);
  check_float "subsampled (1,1)" 10. (Tensor.get out ~n:0 ~h:1 ~w:1 ~c:0);
  check_float "padding zero" 0. (Tensor.get out ~n:0 ~h:1 ~w:1 ~c:2)

(* --- graph builder --- *)

let test_builder_validations () =
  let b = Graph.builder () in
  let i = Graph.add b ~name:"input" Graph.Input [] in
  Alcotest.check_raises "unknown input"
    (Nn_error.Error
       (Nn_error.Unknown_input { op = "Relu"; node = "r"; input = 5 }))
    (fun () -> ignore (Graph.add b ~name:"r" Graph.Relu [ 5 ]));
  Alcotest.check_raises "arity"
    (Nn_error.Error
       (Nn_error.Arity_mismatch
          { op = "Add"; node = "a"; expected = 2; got = 1 }))
    (fun () -> ignore (Graph.add b ~name:"a" Graph.Add [ i ]))

let test_graph_inspection () =
  let g = single_conv_graph () in
  check_int "3 nodes" 3 (Graph.size g);
  check_int "one conv layer" 1 (List.length (Graph.conv_layers g));
  check_bool "find_by_name" true
    (Option.is_some (Graph.find_by_name g "conv1"));
  let input = Shape.make ~n:2 ~h:8 ~w:8 ~c:3 in
  (* 8*8 positions x 3*3*3 taps x 4 filters x 2 images *)
  check_int "macs" (2 * 8 * 8 * 27 * 4) (Graph.total_macs g ~input)

let test_infer_shapes () =
  let g = single_conv_graph () in
  let input = Shape.make ~n:1 ~h:8 ~w:8 ~c:3 in
  let shapes = Graph.infer_shapes g ~input in
  Array.iteri
    (fun id shape ->
      match (Graph.node g id).Graph.op with
      | Graph.Conv2d _ ->
        (match shape with
        | Some s ->
          check_bool "conv output shape" true
            (Shape.equal s (Shape.make ~n:1 ~h:8 ~w:8 ~c:4))
        | None -> Alcotest.fail "conv must be tensor-valued")
      | _ -> ())
    shapes

(* --- transform (Fig. 1) --- *)

let test_transform_structure () =
  let g = single_conv_graph () in
  let approx = Transform.approximate ~config:(exact_config ()) g in
  (* +4 nodes: min, max, filter_min, filter_max. *)
  check_int "node count" (Graph.size g + 4) (Graph.size approx);
  let conv =
    match Graph.find_by_name approx "conv1" with
    | Some n -> n
    | None -> Alcotest.fail "conv1 survives rename"
  in
  (match conv.Graph.op with
  | Graph.Ax_conv2d _ -> ()
  | _ -> Alcotest.fail "conv1 became AxConv2D");
  check_int "AxConv2D has 5 inputs" 5 (List.length conv.Graph.inputs);
  (* The min/max nodes read the same data node AxConv2D reads. *)
  let data = List.nth conv.Graph.inputs 0 in
  let mn = Graph.node approx (List.nth conv.Graph.inputs 1) in
  let mx = Graph.node approx (List.nth conv.Graph.inputs 2) in
  check_bool "min node reads data" true (mn.Graph.inputs = [ data ]);
  check_bool "max node reads data" true (mx.Graph.inputs = [ data ]);
  check_bool "min op" true (mn.Graph.op = Graph.Min_reduce);
  check_bool "max op" true (mx.Graph.op = Graph.Max_reduce);
  (* Filter range folded to constants. *)
  (match (Graph.node approx (List.nth conv.Graph.inputs 3)).Graph.op with
  | Graph.Const_scalar _ -> ()
  | _ -> Alcotest.fail "filter_min is a constant")

let test_transform_preserves_semantics_with_exact_lut () =
  let g = single_conv_graph () in
  let approx = Transform.approximate ~config:(exact_config ()) g in
  let input = Tensor.create (Shape.make ~n:2 ~h:8 ~w:8 ~c:3) in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create 5) input;
  let want = Exec.run g ~input in
  let got = Exec.run approx ~input in
  (* Exact LUT: only quantization noise remains. *)
  check_bool
    (Printf.sprintf "outputs close (%g)" (Tensor.max_abs_diff want got))
    true
    (Tensor.max_abs_diff want got < 0.2)

let test_transform_select_subset () =
  let b = Graph.builder () in
  let input = Graph.add b ~name:"input" Graph.Input [] in
  let f1 = random_filter ~seed:1 ~kh:3 ~kw:3 ~in_c:3 ~out_c:4 in
  let f2 = random_filter ~seed:2 ~kh:3 ~kw:3 ~in_c:4 ~out_c:4 in
  let c1 =
    Graph.add b ~name:"conv1"
      (Graph.Conv2d { filter = f1; bias = None; spec = Conv_spec.default })
      [ input ]
  in
  let c2 =
    Graph.add b ~name:"conv2"
      (Graph.Conv2d { filter = f2; bias = None; spec = Conv_spec.default })
      [ c1 ]
  in
  let g = Graph.finalize b ~output:c2 in
  let approx =
    Transform.approximate
      ~select:(fun n -> n.Graph.name = "conv2")
      ~config:(exact_config ()) g
  in
  (match (Option.get (Graph.find_by_name approx "conv1")).Graph.op with
  | Graph.Conv2d _ -> ()
  | _ -> Alcotest.fail "conv1 untouched");
  match (Option.get (Graph.find_by_name approx "conv2")).Graph.op with
  | Graph.Ax_conv2d _ -> ()
  | _ -> Alcotest.fail "conv2 transformed"

let test_per_layer_transform () =
  let b = Graph.builder () in
  let input = Graph.add b ~name:"input" Graph.Input [] in
  let f1 = random_filter ~seed:1 ~kh:3 ~kw:3 ~in_c:3 ~out_c:4 in
  let c1 =
    Graph.add b ~name:"conv1"
      (Graph.Conv2d { filter = f1; bias = None; spec = Conv_spec.default })
      [ input ]
  in
  let g = Graph.finalize b ~output:c1 in
  let approx = Transform.per_layer ~configs:[ ("conv1", exact_config ()) ] g in
  (match (Option.get (Graph.find_by_name approx "conv1")).Graph.op with
  | Graph.Ax_conv2d _ -> ()
  | _ -> Alcotest.fail "conv1 transformed");
  Alcotest.check_raises "unknown layer"
    (Nn_error.Error
       (Nn_error.No_such_layer
          { context = "Transform.per_layer"; name = "nope" }))
    (fun () ->
      ignore (Transform.per_layer ~configs:[ ("nope", exact_config ()) ] g))

(* --- executor --- *)

let test_exec_residual_graph () =
  (* input -> conv -> relu -> add(input-shortcut) — checks two-input ops. *)
  let b = Graph.builder () in
  let input = Graph.add b ~name:"input" Graph.Input [] in
  let filter = random_filter ~seed:3 ~kh:3 ~kw:3 ~in_c:2 ~out_c:2 in
  let conv =
    Graph.add b ~name:"conv"
      (Graph.Conv2d { filter; bias = None; spec = Conv_spec.default })
      [ input ]
  in
  let relu = Graph.add b ~name:"relu" Graph.Relu [ conv ] in
  let add = Graph.add b ~name:"add" Graph.Add [ relu; input ] in
  let g = Graph.finalize b ~output:add in
  let x = Tensor.create (Shape.make ~n:1 ~h:5 ~w:5 ~c:2) in
  Tensor.fill_uniform (Rng.create 6) x;
  let out = Exec.run g ~input:x in
  let conv_out = Conv_float.gemm ~input:x ~filter ~spec:Conv_spec.default () in
  let want = Tensor.add (Layers.relu conv_out) x in
  check_bool "residual exec" true (Tensor.approx_equal want out)

let test_exec_strategies_agree_on_graph () =
  let g = single_conv_graph () in
  let approx = Transform.approximate ~config:(exact_config ()) g in
  let input = Tensor.create (Shape.make ~n:2 ~h:8 ~w:8 ~c:3) in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create 8) input;
  let a = Exec.run ~strategy:Exec.Cpu_gemm approx ~input in
  let b = Exec.run ~strategy:Exec.Cpu_direct approx ~input in
  check_bool "strategies agree through the graph" true
    (Tensor.max_abs_diff a b = 0.)

let test_exec_scalar_output_rejected () =
  let b = Graph.builder () in
  let input = Graph.add b ~name:"input" Graph.Input [] in
  let mn = Graph.add b ~name:"min" Graph.Min_reduce [ input ] in
  let g = Graph.finalize b ~output:mn in
  let x = Tensor.create (Shape.make ~n:1 ~h:2 ~w:2 ~c:1) in
  Alcotest.check_raises "scalar output"
    (Invalid_argument "Exec: expected a tensor value") (fun () ->
      ignore (Exec.run g ~input:x));
  match Exec.run_value g ~input:x with
  | Exec.Scalar _ -> ()
  | Exec.Tensor _ -> Alcotest.fail "min is scalar-valued"

(* --- dot export --- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_to_dot () =
  let g = single_conv_graph () in
  let approx = Transform.approximate ~config:(exact_config ()) g in
  let dot = Graph.to_dot approx in
  check_bool "digraph" true (contains dot "digraph model");
  check_bool "AxConv2D node" true (contains dot "AxConv2D");
  check_bool "Min node" true (contains dot "Min");
  check_bool "edges" true (contains dot "->");
  check_bool "highlight colour" true (contains dot "#f4cccc");
  (* one edge per input over all nodes *)
  let edges = ref 0 in
  String.iteri
    (fun i ch ->
      if ch = '-' && i + 1 < String.length dot && dot.[i + 1] = '>' then
        incr edges)
    dot;
  let expected =
    Array.fold_left
      (fun acc n -> acc + List.length n.Graph.inputs)
      0 (Graph.nodes approx)
  in
  check_int "edge count" expected !edges

(* --- profile --- *)

let test_profile_phases_partition_time () =
  let p = Profile.create () in
  let g = single_conv_graph () in
  let approx = Transform.approximate ~config:(exact_config ()) g in
  let input = Tensor.create (Shape.make ~n:2 ~h:8 ~w:8 ~c:3) in
  Tensor.fill_uniform (Rng.create 4) input;
  ignore (Exec.run ~profile:p approx ~input);
  check_bool "lut lookups counted" true (Profile.lut_lookups p > 0);
  check_bool "macs counted" true (Profile.macs p > 0);
  check_int "lookups = macs here" (Profile.macs p) (Profile.lut_lookups p);
  let b = Profile.breakdown p in
  let sum =
    b.Profile.init_pct +. b.Profile.quantization_pct +. b.Profile.lut_pct
    +. b.Profile.other_pct
  in
  check_bool "percentages sum to 100" true (abs_float (sum -. 100.) < 1e-6)

let test_profile_nested_no_double_count () =
  let p = Profile.create () in
  Profile.time (Some p) Profile.Other (fun () ->
      Profile.time (Some p) Profile.Lut (fun () ->
          (* busy-wait a little so the inner phase records time *)
          let deadline = Unix.gettimeofday () +. 0.01 in
          while Unix.gettimeofday () < deadline do () done));
  check_bool "inner charged" true (Profile.seconds p Profile.Lut >= 0.009);
  (* outer must not also contain the inner time *)
  check_bool "outer refunded" true (Profile.seconds p Profile.Other < 0.005);
  check_bool "total sane" true (Profile.total_seconds p < 0.02)

let test_profile_reset () =
  let p = Profile.create () in
  Profile.add_seconds p Profile.Init 1.;
  Profile.count_lut_lookups p 5;
  Profile.reset p;
  check_float "cleared" 0. (Profile.total_seconds p);
  check_int "lookups cleared" 0 (Profile.lut_lookups p)

(* --- filter range --- *)

(* [min_max] is called per AxConv2D node by [Transform.approximate] and
   the graph checker: its result must keep the comparison semantics (a
   NaN first weight poisons both ends, a later NaN is skipped) and one
   call may allocate only its result, however many weights it reads. *)
let test_filter_min_max () =
  let f = random_filter ~seed:3 ~kh:3 ~kw:3 ~in_c:32 ~out_c:32 in
  let data = Filter.to_array f in
  let reference d =
    Array.fold_left
      (fun (mn, mx) v -> ((if v < mn then v else mn), if v > mx then v else mx))
      (d.(0), d.(0)) d
  in
  let mn, mx = Filter.min_max f in
  let rmn, rmx = reference data in
  check_bool "min and max match the reference" true (mn = rmn && mx = rmx);
  let with_nan i =
    let d = Array.copy data in
    d.(i) <- Float.nan;
    Filter.of_array ~kh:3 ~kw:3 ~in_c:32 ~out_c:32 d
  in
  let mn0, mx0 = Filter.min_max (with_nan 0) in
  check_bool "NaN first weight poisons both ends" true
    (Float.is_nan mn0 && Float.is_nan mx0);
  let d5 = Array.copy data in
  d5.(5) <- Float.nan;
  check_bool "later NaN skipped as before" true
    (Filter.min_max (with_nan 5) = reference d5);
  let calls = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Filter.min_max f))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  check_bool
    (Printf.sprintf "%.0f words per call over %d weights <= 16" words
       (Array.length data))
    true (words <= 16.)

let () =
  Alcotest.run "ax_nn_graph"
    [
      ( "layers",
        [
          Alcotest.test_case "relu" `Quick test_relu;
          Alcotest.test_case "max pool" `Quick test_max_pool;
          Alcotest.test_case "global avg pool" `Quick test_global_avg_pool;
          Alcotest.test_case "batch norm + fold" `Quick
            test_batch_norm_and_fold;
          Alcotest.test_case "dense" `Quick test_dense;
          Alcotest.test_case "softmax" `Quick test_softmax_properties;
          Alcotest.test_case "argmax" `Quick test_argmax_channels;
          Alcotest.test_case "shortcut pad" `Quick test_shortcut_pad;
        ] );
      ( "graph",
        [
          Alcotest.test_case "builder validations" `Quick
            test_builder_validations;
          Alcotest.test_case "inspection" `Quick test_graph_inspection;
          Alcotest.test_case "infer shapes" `Quick test_infer_shapes;
        ] );
      ( "transform",
        [
          Alcotest.test_case "Fig.1 structure" `Quick test_transform_structure;
          Alcotest.test_case "semantics with exact LUT" `Quick
            test_transform_preserves_semantics_with_exact_lut;
          Alcotest.test_case "select subset" `Quick test_transform_select_subset;
          Alcotest.test_case "per-layer configs" `Quick
            test_per_layer_transform;
          Alcotest.test_case "filter min_max allocation bounded" `Quick
            test_filter_min_max;
        ] );
      ( "exec",
        [
          Alcotest.test_case "residual graph" `Quick test_exec_residual_graph;
          Alcotest.test_case "strategies agree" `Quick
            test_exec_strategies_agree_on_graph;
          Alcotest.test_case "scalar output rejected" `Quick
            test_exec_scalar_output_rejected;
        ] );
      ( "dot",
        [ Alcotest.test_case "fig.1-style export" `Quick test_to_dot ] );
      ( "profile",
        [
          Alcotest.test_case "phases partition time" `Quick
            test_profile_phases_partition_time;
          Alcotest.test_case "nested no double count" `Quick
            test_profile_nested_no_double_count;
          Alcotest.test_case "reset" `Quick test_profile_reset;
        ] );
    ]
