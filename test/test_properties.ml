(* Cross-module property tests: randomized invariants that tie the
   substrates together (netlist <-> behavioural <-> BDD <-> emulator),
   plus failure-injection scenarios. *)

module Circuit = Ax_netlist.Circuit
module Sim = Ax_netlist.Sim
module Bdd = Ax_netlist.Bdd
module Opt = Ax_netlist.Opt
module Multipliers = Ax_netlist.Multipliers
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness
module Faults = Ax_arith.Faults
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Axconv = Ax_nn.Axconv
module Conv_spec = Ax_nn.Conv_spec
module Graph = Ax_nn.Graph
module Registry = Ax_arith.Registry

(* --- random expression circuits: Sim vs BDD agree --- *)

(* Build a random 4-input circuit from a seed; return it. *)
let random_circuit seed =
  let rng = Rng.create seed in
  let c = Circuit.create () in
  let pool = ref (Array.to_list (Ax_netlist.Bus.input c "x" 4)) in
  for _ = 1 to 8 + Rng.int rng 8 do
    let pick () = List.nth !pool (Rng.int rng (List.length !pool)) in
    let a = pick () and b = pick () in
    let node =
      match Rng.int rng 6 with
      | 0 -> Circuit.and_ c a b
      | 1 -> Circuit.or_ c a b
      | 2 -> Circuit.xor_ c a b
      | 3 -> Circuit.nand_ c a b
      | 4 -> Circuit.nor_ c a b
      | _ -> Circuit.not_ c a
    in
    pool := node :: !pool
  done;
  (match !pool with
  | out :: _ -> Circuit.output c "y" out
  | [] -> assert false);
  c

let prop_sim_and_bdd_agree =
  QCheck.Test.make ~name:"random circuit: simulator and BDD agree on truth table"
    ~count:60 QCheck.small_int (fun seed ->
      let c = random_circuit seed in
      let m = Bdd.manager () in
      let outs = Bdd.of_circuit m c in
      let node = List.assoc "y" outs in
      (* Compare satisfy count against exhaustive simulation. *)
      let sim_count = ref 0 in
      for v = 0 to 15 do
        let out = Sim.eval_unsigned c ~input_bits:[ 1; 1; 1; 1 ] v in
        if out land 1 = 1 then incr sim_count
      done;
      Bdd.satisfy_count m ~vars:4 node = float_of_int !sim_count)

let prop_strip_dead_preserves_function =
  QCheck.Test.make ~name:"strip_dead preserves random circuit functions"
    ~count:40 QCheck.small_int (fun seed ->
      let c = random_circuit seed in
      Bdd.equivalent c (Opt.strip_dead c))

(* --- pruned multipliers: netlist vs behavioural on random masks --- *)

let prop_random_mask_netlist_matches_model =
  QCheck.Test.make
    ~name:"random pruning mask: gate level equals behavioural model"
    ~count:8 QCheck.small_int (fun seed ->
      let mask =
        let rng = Rng.create (seed + 1000) in
        Array.init 16 (fun _ -> Rng.int rng 2 = 1)
      in
      (* 4x4 multiplier keeps the test cheap but exhaustive. *)
      let netlist =
        Multipliers.pruned ~bits:4
          ~keep:(fun i j -> mask.((i * 4) + j))
          ~name:"random_mask"
      in
      let gate_fn = Multipliers.behavioural netlist in
      let model =
        Ax_arith.Truncation.pruned ~bits:4 ~keep:(fun i j -> mask.((i * 4) + j))
      in
      let ok = ref true in
      for a = 0 to 15 do
        for b = 0 to 15 do
          if gate_fn a b <> model a b then ok := false
        done
      done;
      !ok)

let prop_pruning_never_overestimates =
  QCheck.Test.make ~name:"any pruning mask only removes product mass"
    ~count:200
    QCheck.(triple small_int (int_bound 255) (int_bound 255))
    (fun (seed, a, b) ->
      let rng = Rng.create seed in
      let mask = Array.init 64 (fun _ -> Rng.int rng 2 = 1) in
      let keep i j = mask.((i * 8) + j) in
      Ax_arith.Truncation.pruned ~bits:8 ~keep a b <= a * b)

(* --- LUT and fault injection --- *)

let prop_faulty_lut_is_still_total =
  (* Whatever garbage the multiplier returns, the LUT pipeline stays
     total: every lookup decodes to a saturated 16-bit value. *)
  QCheck.Test.make ~name:"fault-injected LUTs stay within 16-bit range"
    ~count:100
    QCheck.(triple (int_bound 255) (int_bound 255) (float_range 0. 0.3))
    (fun (a, b, p) ->
      let f = Faults.random_flip ~probability:p ~seed:3 ~bits:16 Ax_arith.Exact.mul8u in
      let lut = Lut.make ~signedness:S.Unsigned f in
      let v = Lut.lookup_value lut a b in
      v >= 0 && v <= 65535)

let prop_lut_roundtrip_bytes =
  QCheck.Test.make ~name:"LUT to_bytes/of_bytes roundtrip" ~count:10
    QCheck.small_int (fun seed ->
      let f =
        Faults.random_flip ~probability:0.01 ~seed ~bits:16
          Ax_arith.Exact.mul8u
      in
      let lut = Lut.make ~signedness:S.Unsigned f in
      let decoded, _ = Lut.of_bytes (Lut.to_bytes lut) ~pos:0 in
      Lut.equal lut decoded)

(* --- emulator invariants under random geometry --- *)

let prop_axconv_batch_permutation_equivariant =
  (* Emulating a permuted batch = permuting the emulated outputs: the
     quantization ranges are batch-global, so this holds exactly. *)
  QCheck.Test.make ~name:"AxConv2D commutes with batch permutation" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 77) in
      let n = 3 + Rng.int rng 3 in
      let input = Tensor.create (Shape.make ~n ~h:6 ~w:6 ~c:2) in
      Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create seed) input;
      let filter = Filter.create ~kh:3 ~kw:3 ~in_c:2 ~out_c:3 in
      Filter.fill_he_normal (Rng.create (seed + 1)) filter;
      let config =
        Axconv.make_config (Registry.lut (Registry.find_exn "mul8s_trunc6"))
      in
      let input_range = Range.of_tensor input in
      let fmin, fmax = Filter.min_max filter in
      let filter_range = Range.make ~min:fmin ~max:fmax in
      let conv x =
        Axconv.conv ~config ~input:x ~input_range ~filter ~filter_range
          ~spec:Conv_spec.default ()
      in
      (* Rotate the batch by one. *)
      let rotated =
        Tensor.concat_batch
          [
            Tensor.slice_batch input ~start:1 ~count:(n - 1);
            Tensor.slice_batch input ~start:0 ~count:1;
          ]
      in
      let direct = conv rotated in
      let expected =
        let out = conv input in
        Tensor.concat_batch
          [
            Tensor.slice_batch out ~start:1 ~count:(n - 1);
            Tensor.slice_batch out ~start:0 ~count:1;
          ]
      in
      Tensor.max_abs_diff direct expected = 0.)

let prop_transform_node_arithmetic =
  QCheck.Test.make ~name:"transform adds exactly 4 nodes per convolution"
    ~count:20
    QCheck.(int_range 0 4)
    (fun blocks ->
      let g =
        if blocks = 0 then Ax_models.Resnet.build ~depth:8 ()
        else Ax_models.Mobilenet.build ~blocks ()
      in
      let convs = List.length (Graph.conv_layers g) in
      let approx =
        Tfapprox.Emulator.approximate_model ~multiplier:"mul8s_exact" g
      in
      Graph.size approx = Graph.size g + (4 * convs))

let prop_model_io_roundtrip_random_graphs =
  QCheck.Test.make ~name:"model serialization roundtrips random models"
    ~count:6
    QCheck.(pair (int_range 1 3) bool)
    (fun (blocks, transform) ->
      let g = Ax_models.Mobilenet.build ~blocks ~width:4 () in
      let g =
        if transform then
          Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_drum4" g
        else g
      in
      let g' = Ax_nn.Model_io.of_bytes (Ax_nn.Model_io.to_bytes g) in
      let input = (Ax_data.Cifar.generate ~n:1 ()).Ax_data.Cifar.images in
      Tensor.max_abs_diff
        (Ax_nn.Exec.run g ~input)
        (Ax_nn.Exec.run g' ~input)
      = 0.)

(* --- Conv_spec geometry: Valid padding and dilation > 1 --- *)

let eff_kernel k dilation = ((k - 1) * dilation) + 1

let conv_geom =
  QCheck.(quad (int_range 1 14) (int_range 1 4) (int_range 1 3) (int_range 1 3))

let prop_valid_padding_closed_form =
  QCheck.Test.make
    ~name:"Conv_spec Valid: closed form, last window stays in bounds" ~count:300
    conv_geom (fun (h, k, stride, dilation) ->
      QCheck.assume (eff_kernel k dilation <= h);
      let input = Shape.make ~n:1 ~h ~w:h ~c:2 in
      let filter = Filter.create ~kh:k ~kw:k ~in_c:2 ~out_c:3 in
      let spec = Conv_spec.make ~stride ~dilation ~padding:Conv_spec.Valid () in
      let out = Conv_spec.output_shape spec input filter in
      let expect = ((h - eff_kernel k dilation) / stride) + 1 in
      Shape.(out.h) = expect
      && Shape.(out.w) = expect
      && Shape.(out.c) = 3
      && Shape.(out.n) = 1
      && ((Shape.(out.h) - 1) * stride) + eff_kernel k dilation <= h)

let prop_dilation_equals_effective_kernel =
  (* A dilated kernel covers the same receptive field as a dense kernel
     of the effective size, so Valid-padding geometry must agree. *)
  QCheck.Test.make
    ~name:"Conv_spec: dilation d geometry = dense ((k-1)d+1) kernel" ~count:300
    QCheck.(quad (int_range 1 14) (int_range 1 4) (int_range 1 3) (int_range 2 3))
    (fun (h, k, stride, dilation) ->
      QCheck.assume (eff_kernel k dilation <= h);
      let input = Shape.make ~n:2 ~h ~w:h ~c:1 in
      let dilated = Filter.create ~kh:k ~kw:k ~in_c:1 ~out_c:1 in
      let dense =
        Filter.create ~kh:(eff_kernel k dilation) ~kw:(eff_kernel k dilation)
          ~in_c:1 ~out_c:1
      in
      let out_dilated =
        Conv_spec.output_shape
          (Conv_spec.make ~stride ~dilation ~padding:Conv_spec.Valid ())
          input dilated
      in
      let out_dense =
        Conv_spec.output_shape
          (Conv_spec.make ~stride ~padding:Conv_spec.Valid ())
          input dense
      in
      Shape.equal out_dilated out_dense)

let prop_same_padding_ignores_kernel =
  QCheck.Test.make
    ~name:"Conv_spec Same: output is ceil(input/stride), any kernel/dilation"
    ~count:300 conv_geom (fun (h, k, stride, dilation) ->
      let input = Shape.make ~n:1 ~h ~w:h ~c:1 in
      let filter = Filter.create ~kh:k ~kw:k ~in_c:1 ~out_c:1 in
      let spec = Conv_spec.make ~stride ~dilation () in
      let out = Conv_spec.output_shape spec input filter in
      Shape.(out.h) = (h + stride - 1) / stride && Shape.(out.w) = Shape.(out.h))

let prop_macs_counts_taps_per_output_element =
  QCheck.Test.make
    ~name:"Conv_spec.macs = output positions x taps, linear in batch"
    ~count:300 conv_geom (fun (h, k, stride, dilation) ->
      QCheck.assume (eff_kernel k dilation <= h);
      let filter = Filter.create ~kh:k ~kw:k ~in_c:2 ~out_c:3 in
      let per_image = Shape.make ~n:1 ~h ~w:h ~c:2 in
      List.for_all
        (fun padding ->
          let spec = Conv_spec.make ~stride ~dilation ~padding () in
          let out = Conv_spec.output_shape spec per_image filter in
          let expect1 =
            Shape.(out.h) * Shape.(out.w) * Filter.taps filter * 3
          in
          Conv_spec.macs spec per_image filter = expect1
          && Conv_spec.macs spec (Shape.make ~n:4 ~h ~w:h ~c:2) filter
             = 4 * expect1)
        [ Conv_spec.Same; Conv_spec.Valid ])

let prop_output_shape_rejects_channel_mismatch =
  QCheck.Test.make ~name:"Conv_spec.output_shape rejects channel mismatch"
    ~count:50
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (c_in, c_filter) ->
      QCheck.assume (c_in <> c_filter);
      let input = Shape.make ~n:1 ~h:8 ~w:8 ~c:c_in in
      let filter = Filter.create ~kh:3 ~kw:3 ~in_c:c_filter ~out_c:2 in
      match Conv_spec.output_shape Conv_spec.default input filter with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* --- quantization robustness (failure injection) --- *)

let prop_quantize_total_on_wild_floats =
  QCheck.Test.make ~name:"quantizer is total on wild (finite) floats"
    ~count:500
    QCheck.(pair (float_range (-1e18) 1e18) (float_range 1e-18 1e18))
    (fun (x, span) ->
      let c = Q.compute_coeffs S.Signed ~rmin:(-.span) ~rmax:span in
      let q = Q.quantize c Round.Nearest_even S.Signed x in
      S.in_range S.Signed q)

let test_axconv_with_all_zero_input () =
  (* Degenerate range (all zeros) must not crash or NaN. *)
  let input = Tensor.create (Shape.make ~n:1 ~h:4 ~w:4 ~c:1) in
  let filter = Filter.create ~kh:3 ~kw:3 ~in_c:1 ~out_c:2 in
  Filter.fill_he_normal (Rng.create 1) filter;
  let config = Axconv.make_config (Registry.lut (Registry.find_exn "mul8s_exact")) in
  let input_range = Range.of_tensor input in
  let fmin, fmax = Filter.min_max filter in
  let out =
    Axconv.conv ~config ~input ~input_range ~filter
      ~filter_range:(Range.make ~min:fmin ~max:fmax)
      ~spec:Conv_spec.default ()
  in
  Tensor.iteri_flat
    (fun _ v ->
      if not (Float.is_finite v) then Alcotest.failf "non-finite output %g" v;
      if v <> 0. then Alcotest.failf "zero input must give zero output, got %g" v)
    out

let test_axconv_with_constant_filter () =
  (* All-equal weights: degenerate filter range. *)
  let input = Tensor.create (Shape.make ~n:1 ~h:4 ~w:4 ~c:1) in
  Tensor.fill_uniform (Rng.create 2) input;
  let filter = Filter.create ~kh:3 ~kw:3 ~in_c:1 ~out_c:1 in
  Filter.iter filter (fun ~h ~w ~c ~k _ -> Filter.set filter ~h ~w ~c ~k 0.5);
  let config = Axconv.make_config (Registry.lut (Registry.find_exn "mul8s_exact")) in
  let input_range = Range.of_tensor input in
  let out =
    Axconv.conv ~config ~input ~input_range ~filter
      ~filter_range:(Range.make ~min:0.5 ~max:0.5)
      ~spec:Conv_spec.default ()
  in
  Tensor.iteri_flat
    (fun _ v ->
      if not (Float.is_finite v) then Alcotest.failf "non-finite output %g" v)
    out

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_sim_and_bdd_agree;
        prop_strip_dead_preserves_function;
        prop_random_mask_netlist_matches_model;
        prop_pruning_never_overestimates;
        prop_faulty_lut_is_still_total;
        prop_lut_roundtrip_bytes;
        prop_axconv_batch_permutation_equivariant;
        prop_transform_node_arithmetic;
        prop_model_io_roundtrip_random_graphs;
        prop_valid_padding_closed_form;
        prop_dilation_equals_effective_kernel;
        prop_same_padding_ignores_kernel;
        prop_macs_counts_taps_per_output_element;
        prop_output_shape_rejects_channel_mismatch;
        prop_quantize_total_on_wild_floats;
      ]
  in
  Alcotest.run "ax_properties"
    [
      ("cross-module properties", props);
      ( "degenerate inputs",
        [
          Alcotest.test_case "all-zero input" `Quick
            test_axconv_with_all_zero_input;
          Alcotest.test_case "constant filter" `Quick
            test_axconv_with_constant_filter;
        ] );
    ]
