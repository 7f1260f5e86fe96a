(* Depthwise convolution (accurate + AxDepthwiseConv2D), transform
   coverage and the MobileNet-style workload, plus a bit-identity sweep
   of the per-channel lowering against test-local copies of the scalar
   depthwise kernels it replaced. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Depthwise = Ax_nn.Depthwise
module Axconv = Ax_nn.Axconv
module Accumulator = Ax_nn.Accumulator
module Graph = Ax_nn.Graph
module Exec = Ax_nn.Exec
module Transform = Ax_nn.Transform
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module Registry = Ax_arith.Registry
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness
module Mobilenet = Ax_models.Mobilenet
module Cifar = Ax_data.Cifar
module Emulator = Tfapprox.Emulator

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_input ~seed shape =
  let t = Tensor.create shape in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1.4 (Rng.create seed) t;
  t

let random_filter ~seed ~kh ~kw ~in_c ~mult =
  let f = Filter.create ~kh ~kw ~in_c ~out_c:mult in
  Filter.fill_he_normal (Rng.create seed) f;
  f

(* Independent reference: per-channel scalar loops, no shared helpers. *)
let reference_float ~input ~filter ~spec =
  let s = Tensor.shape input in
  let out_h, out_w, pad_top, pad_left =
    Shape.conv_output_dims s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter)
      ~stride:spec.Conv_spec.stride ~dilation:spec.Conv_spec.dilation
      ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)
  in
  let mult = Filter.out_c filter in
  let out =
    Tensor.create
      (Shape.make ~n:Shape.(s.n) ~h:out_h ~w:out_w ~c:(Shape.(s.c) * mult))
  in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to out_h - 1 do
      for ow = 0 to out_w - 1 do
        for c = 0 to Shape.(s.c) - 1 do
          for j = 0 to mult - 1 do
            let acc = ref 0. in
            for dh = 0 to Filter.kh filter - 1 do
              for dw = 0 to Filter.kw filter - 1 do
                let h = (oh * spec.Conv_spec.stride) - pad_top + (dh * spec.Conv_spec.dilation) in
                let w = (ow * spec.Conv_spec.stride) - pad_left + (dw * spec.Conv_spec.dilation) in
                if h >= 0 && h < Shape.(s.h) && w >= 0 && w < Shape.(s.w) then
                  acc :=
                    !acc
                    +. Tensor.get input ~n ~h ~w ~c
                       *. Filter.get filter ~h:dh ~w:dw ~c ~k:j
              done
            done;
            Tensor.set out ~n ~h:oh ~w:ow ~c:((c * mult) + j) !acc
          done
        done
      done
    done
  done;
  out

let specs =
  [
    Conv_spec.make ~padding:Conv_spec.Same ();
    Conv_spec.make ~padding:Conv_spec.Valid ();
    Conv_spec.make ~stride:2 ~padding:Conv_spec.Same ();
    Conv_spec.make ~dilation:2 ~padding:Conv_spec.Valid ();
  ]

(* ------------------------------------------------------------------ *)
(* The scalar depthwise kernels the per-channel lowering replaced, kept
   verbatim (minus profiling) as oracles: one loop nest per layer, the
   window quantized per output row, every product decoded through
   [Lut.lookup_code] and summed in ascending tap order.                *)
(* ------------------------------------------------------------------ *)

let legacy_geometry ~spec input filter =
  let s = Tensor.shape input in
  Shape.conv_output_dims s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter)
    ~stride:spec.Conv_spec.stride ~dilation:spec.Conv_spec.dilation
    ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)

let legacy_float_conv ~input ~filter ?bias ~spec () =
  let s = Tensor.shape input in
  let out = Tensor.create (Depthwise.output_shape ~spec s filter) in
  let out_h, out_w, pad_top, pad_left = legacy_geometry ~spec input filter in
  let mult = Filter.out_c filter in
  let buf = Tensor.buffer input and out_buf = Tensor.buffer out in
  let in_c = Shape.(s.c) in
  let out_c_total = in_c * mult in
  let row = ref 0 in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to out_h - 1 do
      for ow = 0 to out_w - 1 do
        let base_h = (oh * spec.Conv_spec.stride) - pad_top in
        let base_w = (ow * spec.Conv_spec.stride) - pad_left in
        let out_base = !row * out_c_total in
        for c = 0 to in_c - 1 do
          for j = 0 to mult - 1 do
            let acc = ref 0. in
            for dh = 0 to Filter.kh filter - 1 do
              let h = base_h + (dh * spec.Conv_spec.dilation) in
              if h >= 0 && h < Shape.(s.h) then
                for dw = 0 to Filter.kw filter - 1 do
                  let w = base_w + (dw * spec.Conv_spec.dilation) in
                  if w >= 0 && w < Shape.(s.w) then
                    acc :=
                      !acc
                      +. buf.{Shape.unsafe_offset s ~n ~h ~w ~c}
                         *. Filter.get filter ~h:dh ~w:dw ~c ~k:j
                done
            done;
            let k = (c * mult) + j in
            let v = match bias with Some b -> !acc +. b.(k) | None -> !acc in
            out_buf.{out_base + k} <- v
          done
        done;
        incr row
      done
    done
  done;
  out

let legacy_approx_conv ~config ~input ~input_range ~filter ~filter_range
    ?bias ~spec () =
  let lut = config.Axconv.lut in
  let signedness = Lut.signedness lut in
  let s = Tensor.shape input in
  let out = Tensor.create (Depthwise.output_shape ~spec s filter) in
  let coeffs1 =
    Q.compute_coeffs signedness ~rmin:input_range.Range.min
      ~rmax:input_range.Range.max
  in
  let coeffs2 =
    Q.compute_coeffs signedness ~rmin:filter_range.Range.min
      ~rmax:filter_range.Range.max
  in
  let kh = Filter.kh filter and kw = Filter.kw filter in
  let in_c = Filter.in_c filter and mult = Filter.out_c filter in
  let qf = Bytes.create (in_c * mult * kh * kw) in
  let sf = Array.make (in_c * mult) 0 in
  Filter.iter filter (fun ~h ~w ~c ~k v ->
      let q = Q.quantize coeffs2 config.Axconv.round_mode signedness v in
      let slot = (c * mult) + k in
      sf.(slot) <- sf.(slot) + q;
      Bytes.unsafe_set qf
        ((slot * kh * kw) + (h * kw) + w)
        (Char.unsafe_chr (q land 0xff)));
  let out_h, out_w, pad_top, pad_left = legacy_geometry ~spec input filter in
  let taps = kh * kw in
  let alpha12 = coeffs1.Q.alpha *. coeffs2.Q.alpha in
  let beta1 = coeffs1.Q.beta and beta2 = coeffs2.Q.beta in
  let n_beta12 = taps * beta1 * beta2 in
  let inv_alpha1 = 1. /. coeffs1.Q.alpha in
  let beta1f = float_of_int beta1 in
  let zero_code = beta1 land 0xff in
  let buf = Tensor.buffer input and out_buf = Tensor.buffer out in
  let out_c_total = in_c * mult in
  let windows = Bytes.create (out_w * in_c * taps) in
  let sps = Array.make (out_w * in_c) 0 in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to out_h - 1 do
      let base_h = (oh * spec.Conv_spec.stride) - pad_top in
      for ow = 0 to out_w - 1 do
        let base_w = (ow * spec.Conv_spec.stride) - pad_left in
        for c = 0 to in_c - 1 do
          let cell = (ow * in_c) + c in
          let acc = ref 0 and col = ref (cell * taps) in
          for dh = 0 to kh - 1 do
            let h = base_h + (dh * spec.Conv_spec.dilation) in
            for dw = 0 to kw - 1 do
              let w = base_w + (dw * spec.Conv_spec.dilation) in
              if h >= 0 && h < Shape.(s.h) && w >= 0 && w < Shape.(s.w) then begin
                let q =
                  S.clamp signedness
                    (Round.apply config.Axconv.round_mode
                       ((buf.{Shape.unsafe_offset s ~n ~h ~w ~c} *. inv_alpha1)
                       +. beta1f))
                in
                acc := !acc + q;
                Bytes.unsafe_set windows !col (Char.unsafe_chr (q land 0xff))
              end
              else begin
                acc := !acc + beta1;
                Bytes.unsafe_set windows !col (Char.unsafe_chr zero_code)
              end;
              incr col
            done
          done;
          sps.(cell) <- !acc
        done
      done;
      let row_base = ((n * out_h) + oh) * out_w in
      for ow = 0 to out_w - 1 do
        let out_base = (row_base + ow) * out_c_total in
        for c = 0 to in_c - 1 do
          let cell = (ow * in_c) + c in
          let window_base = cell * taps in
          let sp = sps.(cell) in
          for j = 0 to mult - 1 do
            let slot = (c * mult) + j in
            let qf_base = slot * taps in
            let acc = ref 0 in
            for p = 0 to taps - 1 do
              let ca = Char.code (Bytes.unsafe_get windows (window_base + p)) in
              let cb = Char.code (Bytes.unsafe_get qf (qf_base + p)) in
              acc :=
                Accumulator.add config.Axconv.accumulator !acc
                  (Lut.lookup_code lut ca cb)
            done;
            let corrected = !acc - (beta2 * sp) - (beta1 * sf.(slot)) + n_beta12 in
            let v = alpha12 *. float_of_int corrected in
            let v = match bias with Some b -> v +. b.(slot) | None -> v in
            out_buf.{out_base + slot} <- v
          done
        done
      done
    done
  done;
  out

(* Same shape and the same 64-bit pattern in every cell. *)
let same_bits a b =
  Shape.equal (Tensor.shape a) (Tensor.shape b)
  &&
  let ok = ref true in
  for i = 0 to Tensor.num_elements a - 1 do
    if
      Int64.bits_of_float (Tensor.get_flat a i)
      <> Int64.bits_of_float (Tensor.get_flat b i)
    then ok := false
  done;
  !ok

let test_float_matches_reference () =
  List.iteri
    (fun i spec ->
      List.iter
        (fun mult ->
          let input = random_input ~seed:(i + 40) (Shape.make ~n:2 ~h:8 ~w:8 ~c:3) in
          let filter = random_filter ~seed:(i + 50) ~kh:3 ~kw:3 ~in_c:3 ~mult in
          let want = reference_float ~input ~filter ~spec in
          let got = Depthwise.float_conv ~input ~filter ~spec () in
          check_bool
            (Printf.sprintf "spec %d mult %d (diff %g)" i mult
               (Tensor.max_abs_diff want got))
            true
            (Tensor.approx_equal ~tolerance:1e-5 want got))
        [ 1; 2 ])
    specs

let test_output_shape_and_macs () =
  let s = Shape.make ~n:1 ~h:8 ~w:8 ~c:4 in
  let filter = random_filter ~seed:1 ~kh:3 ~kw:3 ~in_c:4 ~mult:2 in
  let spec = Conv_spec.default in
  let out = Depthwise.output_shape ~spec s filter in
  check_bool "shape" true (Shape.equal out (Shape.make ~n:1 ~h:8 ~w:8 ~c:8));
  (* 8*8 positions x 8 output channels x 9 taps *)
  check_int "macs" (8 * 8 * 8 * 9) (Depthwise.macs ~spec s filter)

let test_channel_mismatch_rejected () =
  let s = Shape.make ~n:1 ~h:4 ~w:4 ~c:3 in
  let filter = random_filter ~seed:2 ~kh:3 ~kw:3 ~in_c:4 ~mult:1 in
  Alcotest.check_raises "channels"
    (Invalid_argument
       "Depthwise.output_shape: input has 3 channels, filter wants 4")
    (fun () ->
      ignore
        (Depthwise.output_shape ~spec:Conv_spec.default s filter))

let run_approx ~entry ~input ~filter ~spec =
  let config = Axconv.make_config (Registry.lut entry) in
  let input_range = Range.of_tensor input in
  let fmin, fmax = Filter.min_max filter in
  let filter_range = Range.make ~min:fmin ~max:fmax in
  Depthwise.approx_conv ~config ~input ~input_range ~filter ~filter_range
    ~spec ()

(* Quantize-multiply-dequantize reference in the style of the AxConv2D
   tests: naive Eq. 3 expansion per tap. *)
let reference_approx ~entry ~input ~filter ~spec =
  let signedness = entry.Registry.signedness in
  let input_range = Range.of_tensor input in
  let fmin, fmax = Filter.min_max filter in
  let c1 =
    Q.compute_coeffs signedness ~rmin:input_range.Range.min
      ~rmax:input_range.Range.max
  in
  let c2 = Q.compute_coeffs signedness ~rmin:fmin ~rmax:fmax in
  let s = Tensor.shape input in
  let out_h, out_w, pad_top, pad_left =
    Shape.conv_output_dims s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter)
      ~stride:spec.Conv_spec.stride ~dilation:spec.Conv_spec.dilation
      ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)
  in
  let mult = Filter.out_c filter in
  let out =
    Tensor.create
      (Shape.make ~n:Shape.(s.n) ~h:out_h ~w:out_w ~c:(Shape.(s.c) * mult))
  in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to out_h - 1 do
      for ow = 0 to out_w - 1 do
        for c = 0 to Shape.(s.c) - 1 do
          for j = 0 to mult - 1 do
            let acc = ref 0 in
            for dh = 0 to Filter.kh filter - 1 do
              for dw = 0 to Filter.kw filter - 1 do
                let h = (oh * spec.Conv_spec.stride) - pad_top + (dh * spec.Conv_spec.dilation) in
                let w = (ow * spec.Conv_spec.stride) - pad_left + (dw * spec.Conv_spec.dilation) in
                let x =
                  if h >= 0 && h < Shape.(s.h) && w >= 0 && w < Shape.(s.w)
                  then Tensor.get input ~n ~h ~w ~c
                  else 0.
                in
                let q1 = Q.quantize c1 Round.Nearest_even signedness x in
                let q2 =
                  Q.quantize c2 Round.Nearest_even signedness
                    (Filter.get filter ~h:dh ~w:dw ~c ~k:j)
                in
                acc :=
                  !acc
                  + entry.Registry.multiply q1 q2
                  - (c2.Q.beta * q1) - (c1.Q.beta * q2)
                  + (c1.Q.beta * c2.Q.beta)
              done
            done;
            Tensor.set out ~n ~h:oh ~w:ow ~c:((c * mult) + j)
              (c1.Q.alpha *. c2.Q.alpha *. float_of_int !acc)
          done
        done
      done
    done
  done;
  out

let test_approx_matches_reference () =
  List.iter
    (fun entry_name ->
      let entry = Registry.find_exn entry_name in
      List.iteri
        (fun i spec ->
          let input = random_input ~seed:(i + 60) (Shape.make ~n:2 ~h:7 ~w:7 ~c:3) in
          let filter = random_filter ~seed:(i + 70) ~kh:3 ~kw:3 ~in_c:3 ~mult:2 in
          let want = reference_approx ~entry ~input ~filter ~spec in
          let got = run_approx ~entry ~input ~filter ~spec in
          check_bool
            (Printf.sprintf "%s spec %d (diff %g)" entry_name i
               (Tensor.max_abs_diff want got))
            true
            (Tensor.approx_equal ~tolerance:1e-4 want got))
        specs)
    [ "mul8s_exact"; "mul8s_trunc6"; "mul8u_exact" ]

let test_approx_exact_lut_close_to_float () =
  let input = random_input ~seed:3 (Shape.make ~n:1 ~h:10 ~w:10 ~c:4) in
  let filter = random_filter ~seed:4 ~kh:3 ~kw:3 ~in_c:4 ~mult:1 in
  let spec = Conv_spec.default in
  let want = Depthwise.float_conv ~input ~filter ~spec () in
  let got =
    run_approx ~entry:(Registry.find_exn "mul8s_exact") ~input ~filter ~spec
  in
  let diff = Tensor.max_abs_diff want got in
  check_bool (Printf.sprintf "quantization noise only (%g)" diff) true
    (diff < 0.1)

let test_bias_and_validation () =
  let input = random_input ~seed:5 (Shape.make ~n:1 ~h:4 ~w:4 ~c:2) in
  let filter = random_filter ~seed:6 ~kh:3 ~kw:3 ~in_c:2 ~mult:2 in
  let spec = Conv_spec.default in
  let without = Depthwise.float_conv ~input ~filter ~spec () in
  let bias = [| 1.; 2.; 3.; 4. |] in
  let with_bias = Depthwise.float_conv ~input ~filter ~bias ~spec () in
  Alcotest.(check (float 1e-5)) "bias channel 2" 3.
    (Tensor.get with_bias ~n:0 ~h:1 ~w:1 ~c:2
    -. Tensor.get without ~n:0 ~h:1 ~w:1 ~c:2);
  Alcotest.check_raises "bad bias"
    (Invalid_argument "Depthwise: bias length differs from in_c * multiplier")
    (fun () ->
      ignore (Depthwise.float_conv ~input ~filter ~bias:[| 1. |] ~spec ()))

(* --- bit identity of the per-channel lowering --- *)

let sweep_accumulators =
  [
    Accumulator.Wide;
    Accumulator.Saturating 12;
    Accumulator.Wrapping 10;
    Accumulator.Lower_or { width = 16; approx_low = 4 };
  ]

let sweep_luts =
  [
    "mul8u_exact"; "mul8u_trunc8"; "mul8u_mitchell"; "mul8s_exact";
    "mul8s_trunc6";
  ]

let round_modes =
  Round.[ Nearest_even; Nearest_away; Toward_zero; Stochastic ]

(* (chunk_size, domains): one image per chunk, a chunk split mid-batch,
   the whole batch in one chunk, each serial and on four domains. *)
let splits = [| (1, 1); (2, 1); (250, 1); (1, 4); (250, 4) |]

(* The per-channel conv of each executor strategy. *)
let strategies : (string * Depthwise.conv) list =
  [
    ("cpu-gemm", Axconv.conv ?profile:None ?pool:None ?scratch:None);
    ("cpu-direct", Ax_nn.Conv_direct.conv ?profile:None);
  ]

let first_mismatches bad =
  List.filteri (fun i _ -> i < 5) (List.rev bad)

(* The full grid (4 specs x 3 multipliers x bias x 5 LUTs x 4
   accumulators x 4 rounding modes x 2 granularities x 5 splits x 2
   strategies) is 38,400 convolutions, too slow for every test run: each
   (spec, multiplier, bias, LUT, accumulator, rounding) point runs one
   split drawn from a fixed seed, under both granularities and both
   strategies. *)
let test_approx_bit_identical () =
  let cases = ref 0 and bad = ref [] in
  let rng = Rng.create 21 in
  List.iteri
    (fun si spec ->
      List.iter
        (fun mult ->
          List.iter
            (fun with_bias ->
              let seed = (100 * si) + (10 * mult) + Bool.to_int with_bias in
              let input =
                random_input ~seed (Shape.make ~n:3 ~h:7 ~w:7 ~c:3)
              in
              let filter =
                random_filter ~seed:(seed + 1) ~kh:3 ~kw:3 ~in_c:3 ~mult
              in
              let bias =
                if with_bias then
                  Some
                    (Array.init (3 * mult) (fun k ->
                         0.1 *. float_of_int (k - 2)))
                else None
              in
              let input_range = Range.of_tensor input in
              let fmin, fmax = Filter.min_max filter in
              let filter_range = Range.make ~min:fmin ~max:fmax in
              List.iter
                (fun lut_name ->
                  let lut = Registry.lut (Registry.find_exn lut_name) in
                  List.iter
                    (fun accumulator ->
                      List.iter
                        (fun round_mode ->
                          let want =
                            legacy_approx_conv
                              ~config:
                                (Axconv.make_config ~round_mode ~accumulator
                                   lut)
                              ~input ~input_range ~filter ~filter_range ?bias
                              ~spec ()
                          in
                          let chunk_size, domains =
                            splits.(Rng.int rng (Array.length splits))
                          in
                          List.iter
                            (fun granularity ->
                              let config =
                                Axconv.make_config ~round_mode ~chunk_size
                                  ~granularity ~accumulator ~domains lut
                              in
                              List.iter
                                (fun (strategy, conv) ->
                                  let got =
                                    Depthwise.approx_conv ~conv ~config ~input
                                      ~input_range ~filter ~filter_range ?bias
                                      ~spec ()
                                  in
                                  incr cases;
                                  if not (same_bits want got) then
                                    bad :=
                                      Printf.sprintf
                                        "spec %d mult %d bias %b %s %s %s \
                                         chunk %d domains %d %s"
                                        si mult with_bias lut_name
                                        (Accumulator.to_string accumulator)
                                        (Round.to_string round_mode) chunk_size
                                        domains strategy
                                      :: !bad)
                                strategies)
                            [ Axconv.Per_tensor; Axconv.Per_channel ])
                        round_modes)
                    sweep_accumulators)
                sweep_luts)
            [ false; true ])
        [ 1; 2; 3 ])
    specs;
  check_int "approximate cases" 7680 !cases;
  Alcotest.(check (list string)) "bit-identical to the scalar kernel" []
    (first_mismatches !bad)

let test_float_bit_identical () =
  let cases = ref 0 and bad = ref [] in
  for in_c = 1 to 6 do
    for n = 1 to 3 do
      for kh = 1 to 3 do
        for kw = 1 to 3 do
          List.iteri
            (fun si spec ->
              for mult = 1 to 3 do
                let seed = (1000 * in_c) + (100 * n) + (10 * kh) + kw in
                let input =
                  random_input ~seed (Shape.make ~n ~h:7 ~w:7 ~c:in_c)
                in
                let filter =
                  random_filter ~seed:(seed + si + mult) ~kh ~kw ~in_c ~mult
                in
                let bias =
                  Array.init (in_c * mult) (fun k -> 0.25 *. float_of_int k)
                in
                List.iter
                  (fun bias ->
                    let want = legacy_float_conv ~input ~filter ?bias ~spec () in
                    let got =
                      Depthwise.float_conv ~input ~filter ?bias ~spec ()
                    in
                    incr cases;
                    if not (same_bits want got) then
                      bad :=
                        Printf.sprintf
                          "in_c %d n %d kernel %dx%d spec %d mult %d bias %b"
                          in_c n kh kw si mult (Option.is_some bias)
                        :: !bad)
                  [ None; Some bias ]
              done)
            specs
        done
      done
    done
  done;
  check_int "float cases" 3888 !cases;
  Alcotest.(check (list string)) "bit-identical to the scalar kernel" []
    (first_mismatches !bad)

(* The executor lowers each AxDepthwiseConv2D channel onto the conv its
   strategy names: under cpu-gemm one [axconv.conv] span per AxConv2D
   node and per depthwise input channel, under cpu-direct none. *)
let test_exec_routes_depthwise_by_strategy () =
  let approx =
    Emulator.approximate_model ~multiplier:"mul8u_mitchell"
      (Mobilenet.build ~blocks:2 ())
  in
  let data = (Cifar.generate ~n:2 ()).Cifar.images in
  let axconv_spans strategy =
    let trace = Ax_obs.Trace.create () in
    let profile = Ax_nn.Profile.create ~trace () in
    let out = Exec.run ~profile ~strategy approx ~input:data in
    ( out,
      List.length
        (List.filter
           (fun sp -> sp.Ax_obs.Trace.name = "axconv.conv")
           (Ax_obs.Trace.spans trace)) )
  in
  let expected =
    Array.fold_left
      (fun acc n ->
        match n.Graph.op with
        | Graph.Ax_conv2d _ -> acc + 1
        | Graph.Ax_depthwise_conv2d { filter; _ } -> acc + Filter.in_c filter
        | _ -> acc)
      0 (Graph.nodes approx)
  in
  let gemm, gemm_spans = axconv_spans Exec.Cpu_gemm in
  let direct, direct_spans = axconv_spans Exec.Cpu_direct in
  check_int "cpu-gemm: one axconv per conv and depthwise channel" expected
    gemm_spans;
  check_int "cpu-direct: no axconv" 0 direct_spans;
  check_bool "strategies agree bit for bit" true (same_bits gemm direct)

(* --- graph integration --- *)

let test_transform_covers_depthwise () =
  let g = Mobilenet.build () in
  let approx = Emulator.approximate_model ~multiplier:"mul8s_exact" g in
  let remaining =
    Array.to_list (Graph.nodes approx)
    |> List.filter (fun n ->
           match n.Graph.op with
           | Graph.Conv2d _ | Graph.Depthwise_conv2d _ -> true
           | _ -> false)
  in
  check_int "no accurate convolutions left" 0 (List.length remaining);
  let ax_dw =
    Array.to_list (Graph.nodes approx)
    |> List.filter (fun n ->
           match n.Graph.op with
           | Graph.Ax_depthwise_conv2d _ -> true
           | _ -> false)
  in
  check_int "four AxDepthwiseConv2D blocks" 4 (List.length ax_dw)

let test_mobilenet_runs_and_transform_preserves () =
  let g = Mobilenet.build () in
  let data = (Cifar.generate ~n:4 ()).Cifar.images in
  let want = Exec.run g ~input:data in
  let s = Tensor.shape want in
  check_bool "output shape" true
    (Shape.equal s (Shape.make ~n:4 ~h:1 ~w:1 ~c:10));
  let approx = Emulator.approximate_model ~multiplier:"mul8s_exact" g in
  let got = Exec.run approx ~input:data in
  check_bool
    (Printf.sprintf "exact LUT close (%g)" (Tensor.max_abs_diff want got))
    true
    (Tensor.max_abs_diff want got < 0.25)

let test_mobilenet_macs_positive_and_stable () =
  let m = Mobilenet.macs_per_image () in
  check_bool "macs positive" true (m > 0);
  check_int "deterministic" m (Mobilenet.macs_per_image ());
  (* Depthwise layers contribute: removing them (blocks=0 invalid) —
     compare widths instead. *)
  check_bool "wider is costlier" true
    (Mobilenet.macs_per_image ~width:32 () > m)

let test_per_layer_transform_on_depthwise () =
  let g = Mobilenet.build () in
  let config =
    Axconv.make_config (Registry.lut (Registry.find_exn "mul8s_exact"))
  in
  let approx = Transform.per_layer ~configs:[ ("block0/dw", config) ] g in
  match (Option.get (Graph.find_by_name approx "block0/dw")).Graph.op with
  | Graph.Ax_depthwise_conv2d _ -> ()
  | _ -> Alcotest.fail "block0/dw transformed"

let test_calibration_covers_depthwise () =
  let g = Mobilenet.build ~blocks:2 () in
  let approx = Emulator.approximate_model ~multiplier:"mul8s_mitchell" g in
  let sample = (Cifar.generate ~n:3 ()).Cifar.images in
  let fixed = Tfapprox.Calibrate.bias_correct ~sample approx in
  let test = (Cifar.generate ~seed:77 ~n:4 ()).Cifar.images in
  let want = Exec.run g ~input:test in
  let before = Tensor.max_abs_diff want (Exec.run approx ~input:test) in
  let after = Tensor.max_abs_diff want (Exec.run fixed ~input:test) in
  check_bool
    (Printf.sprintf "calibration helps depthwise nets (%.4f -> %.4f)" before
       after)
    true (after < before)

let () =
  Alcotest.run "ax_depthwise"
    [
      ( "float",
        [
          Alcotest.test_case "matches reference" `Quick
            test_float_matches_reference;
          Alcotest.test_case "shape and macs" `Quick
            test_output_shape_and_macs;
          Alcotest.test_case "channel mismatch" `Quick
            test_channel_mismatch_rejected;
          Alcotest.test_case "bias and validation" `Quick
            test_bias_and_validation;
          Alcotest.test_case "bit-identical to scalar kernel" `Quick
            test_float_bit_identical;
        ] );
      ( "approx",
        [
          Alcotest.test_case "matches quantized reference" `Quick
            test_approx_matches_reference;
          Alcotest.test_case "exact LUT close to float" `Quick
            test_approx_exact_lut_close_to_float;
          Alcotest.test_case "bit-identical to scalar kernel" `Quick
            test_approx_bit_identical;
        ] );
      ( "graph",
        [
          Alcotest.test_case "transform covers depthwise" `Quick
            test_transform_covers_depthwise;
          Alcotest.test_case "mobilenet runs" `Quick
            test_mobilenet_runs_and_transform_preserves;
          Alcotest.test_case "mobilenet macs" `Quick
            test_mobilenet_macs_positive_and_stable;
          Alcotest.test_case "per-layer transform" `Quick
            test_per_layer_transform_on_depthwise;
          Alcotest.test_case "calibration covers depthwise" `Quick
            test_calibration_covers_depthwise;
          Alcotest.test_case "exec routes depthwise by strategy" `Quick
            test_exec_routes_depthwise_by_strategy;
        ] );
    ]
