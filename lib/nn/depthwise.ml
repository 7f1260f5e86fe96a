module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness

let check_bias filter = function
  | None -> ()
  | Some b ->
    if Array.length b <> Filter.in_c filter * Filter.out_c filter then
      invalid_arg "Depthwise: bias length differs from in_c * multiplier"

let output_shape ~spec input filter =
  if Shape.(input.c) <> Filter.in_c filter then
    invalid_arg
      (Printf.sprintf
         "Depthwise.output_shape: input has %d channels, filter wants %d"
         Shape.(input.c) (Filter.in_c filter));
  let out_h, out_w, _, _ =
    Shape.conv_output_dims input ~kh:(Filter.kh filter)
      ~kw:(Filter.kw filter) ~stride:spec.Conv_spec.stride
      ~dilation:spec.Conv_spec.dilation
      ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)
  in
  Shape.make ~n:Shape.(input.n) ~h:out_h ~w:out_w
    ~c:(Filter.in_c filter * Filter.out_c filter)

let macs ~spec input filter =
  let out = output_shape ~spec input filter in
  Shape.(out.n) * Shape.(out.h) * Shape.(out.w) * Shape.(out.c)
  * Filter.kh filter * Filter.kw filter

(* Shared loop skeleton: visits every output position and calls [cell]
   once per (input channel, multiplier) pair with a fold over the
   window taps.  [tap] receives (dh, dw, in-bounds input offset or -1). *)
let geometry ~spec input filter =
  let s = Tensor.shape input in
  Shape.conv_output_dims s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter)
    ~stride:spec.Conv_spec.stride ~dilation:spec.Conv_spec.dilation
    ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)

let float_conv ~input ~filter ?bias ~spec () =
  check_bias filter bias;
  let s = Tensor.shape input in
  let out = Tensor.create (output_shape ~spec s filter) in
  let out_h, out_w, pad_top, pad_left = geometry ~spec input filter in
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

let approx_conv ?profile ~config ~input ~input_range ~filter ~filter_range
    ?bias ~spec () =
  check_bias filter bias;
  let charge phase f =
    match profile with Some p -> Profile.time p phase f | None -> f ()
  in
  let lut = config.Axconv.lut in
  let signedness = Lut.signedness lut in
  let s = Tensor.shape input in
  let out = charge Profile.Init (fun () -> Tensor.create (output_shape ~spec s filter)) in
  let coeffs1, coeffs2, qf, sf =
    charge Profile.Quantization (fun () ->
        let coeffs1 =
          Q.compute_coeffs signedness ~rmin:input_range.Range.min
            ~rmax:input_range.Range.max
        in
        let coeffs2 =
          Q.compute_coeffs signedness ~rmin:filter_range.Range.min
            ~rmax:filter_range.Range.max
        in
        (* Quantized filter codes, laid out [c][j][tap] with the per-
           (c, j) sums of quantized values. *)
        let kh = Filter.kh filter and kw = Filter.kw filter in
        let in_c = Filter.in_c filter and mult = Filter.out_c filter in
        let qf = Bytes.create (in_c * mult * kh * kw) in
        let sf = Array.make (in_c * mult) 0 in
        Filter.iter filter (fun ~h ~w ~c ~k v ->
            let q =
              Q.quantize coeffs2 config.Axconv.round_mode signedness v
            in
            let slot = (c * mult) + k in
            sf.(slot) <- sf.(slot) + q;
            Bytes.unsafe_set qf
              ((slot * kh * kw) + (h * kw) + w)
              (Char.unsafe_chr (q land 0xff)));
        (coeffs1, coeffs2, qf, sf))
  in
  let out_h, out_w, pad_top, pad_left = geometry ~spec input filter in
  let kh = Filter.kh filter and kw = Filter.kw filter in
  let in_c = Shape.(s.c) and mult = Filter.out_c filter in
  let taps = kh * kw in
  let alpha12 = coeffs1.Q.alpha *. coeffs2.Q.alpha in
  let beta1 = coeffs1.Q.beta and beta2 = coeffs2.Q.beta in
  let n_beta12 = taps * beta1 * beta2 in
  let inv_alpha1 = 1. /. coeffs1.Q.alpha in
  let beta1f = float_of_int beta1 in
  let zero_code = beta1 land 0xff in
  let buf = Tensor.buffer input and out_buf = Tensor.buffer out in
  let out_c_total = in_c * mult in
  (* One output row's quantized windows, [ow][c][tap], and their Sp:
     each phase is charged once per row, so a profiled run measures the
     kernel rather than its clock reads. *)
  let windows = Bytes.create (out_w * in_c * taps) in
  let sps = Array.make (out_w * in_c) 0 in
  let lookups = ref 0 in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to out_h - 1 do
      let base_h = (oh * spec.Conv_spec.stride) - pad_top in
      charge Profile.Quantization (fun () ->
          for ow = 0 to out_w - 1 do
            let base_w = (ow * spec.Conv_spec.stride) - pad_left in
            for c = 0 to in_c - 1 do
              let cell = (ow * in_c) + c in
              let acc = ref 0 and col = ref (cell * taps) in
              for dh = 0 to kh - 1 do
                let h = base_h + (dh * spec.Conv_spec.dilation) in
                for dw = 0 to kw - 1 do
                  let w = base_w + (dw * spec.Conv_spec.dilation) in
                  if h >= 0 && h < Shape.(s.h) && w >= 0 && w < Shape.(s.w)
                  then begin
                    let q =
                      S.clamp signedness
                        (Round.apply config.Axconv.round_mode
                           ((buf.{Shape.unsafe_offset s ~n ~h ~w ~c}
                             *. inv_alpha1)
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
          done);
      let row_base = ((n * out_h) + oh) * out_w in
      charge Profile.Lut (fun () ->
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
                lookups := !lookups + taps;
                let corrected =
                  !acc - (beta2 * sp) - (beta1 * sf.(slot)) + n_beta12
                in
                let v = alpha12 *. float_of_int corrected in
                let v = match bias with Some b -> v +. b.(slot) | None -> v in
                out_buf.{out_base + slot} <- v
              done
            done
          done)
    done
  done;
  (match profile with
  | Some p ->
    Profile.count_lut_lookups p !lookups;
    Profile.count_macs p !lookups
  | None -> ());
  out
