module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness

let conv ?profile ~config ~input ~input_range ~filter ~filter_range ?bias
    ~spec () =
  (match bias with
  | Some b when Array.length b <> Filter.out_c filter ->
    invalid_arg "Conv_direct.conv: bias length differs from filter count"
  | Some _ | None -> ());
  let lut = config.Axconv.lut in
  let signedness = Lut.signedness lut in
  let out_shape = Conv_spec.output_shape spec (Tensor.shape input) filter in
  let out =
    Profile.time profile Profile.Init (fun () -> Tensor.create out_shape)
  in
  let coeffs1, coeffs2, mf_t, sf =
    Profile.time profile Profile.Quantization (fun () ->
        let coeffs1 =
          Q.compute_coeffs signedness ~rmin:input_range.Range.min
            ~rmax:input_range.Range.max
        in
        let coeffs2 =
          Axconv.filter_coeffs config.Axconv.granularity signedness filter
            filter_range
        in
        let mf_t, sf =
          Axconv.quantize_filters_per_channel signedness coeffs2
            config.Axconv.round_mode filter
        in
        (coeffs1, coeffs2, mf_t, sf))
  in
  let s = Tensor.shape input in
  let plan =
    Im2col.make s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter) ~spec
  in
  let taps = Filter.taps filter and out_c = Filter.out_c filter in
  let beta1 = coeffs1.Q.beta in
  let alpha12 = Array.map (fun c -> coeffs1.Q.alpha *. c.Q.alpha) coeffs2 in
  let beta2 = Array.map (fun c -> c.Q.beta) coeffs2 in
  let n_beta12 = Array.map (fun b2 -> taps * beta1 * b2) beta2 in
  let inv_alpha1 = 1. /. coeffs1.Q.alpha in
  let beta1f = float_of_int beta1 in
  let buf = Tensor.buffer input in
  let out_buf = Tensor.buffer out in
  let window = Bytes.create taps in
  let zero_code = beta1 land 0xff in
  let in_h = Shape.(s.h) and in_w = Shape.(s.w) and in_c = Shape.(s.c) in
  let row = ref 0 in
  (* The loop nest "directly stems from the definition of the
     convolution" (Sec. III quoting ref. [12]): batch, output pixel,
     output channel — so the input window is re-quantized for every
     output channel, which is why Fig. 2 shows quantization dominating
     this baseline. *)
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to plan.Im2col.out_h - 1 do
      for ow = 0 to plan.Im2col.out_w - 1 do
        let out_base = !row * out_c in
        for k = 0 to out_c - 1 do
          let sp =
            Profile.time profile Profile.Quantization (fun () ->
                let base_h =
                  (oh * spec.Conv_spec.stride) - plan.Im2col.pad_top
                in
                let base_w =
                  (ow * spec.Conv_spec.stride) - plan.Im2col.pad_left
                in
                let acc = ref 0 and col = ref 0 in
                for dh = 0 to Filter.kh filter - 1 do
                  let h = base_h + (dh * spec.Conv_spec.dilation) in
                  for dw = 0 to Filter.kw filter - 1 do
                    let w = base_w + (dw * spec.Conv_spec.dilation) in
                    if h >= 0 && h < in_h && w >= 0 && w < in_w then begin
                      let off = Shape.unsafe_offset s ~n ~h ~w ~c:0 in
                      for c = 0 to in_c - 1 do
                        let q =
                          S.clamp signedness
                            (Round.apply config.Axconv.round_mode
                               ((buf.{off + c} *. inv_alpha1) +. beta1f))
                        in
                        acc := !acc + q;
                        Bytes.unsafe_set window !col
                          (Char.unsafe_chr (q land 0xff));
                        incr col
                      done
                    end
                    else
                      for _ = 1 to in_c do
                        acc := !acc + beta1;
                        Bytes.unsafe_set window !col
                          (Char.unsafe_chr zero_code);
                        incr col
                      done
                  done
                done;
                !acc)
          in
          Profile.time profile Profile.Lut (fun () ->
              let mf_base = k * taps in
              let acc = ref 0 in
              for p = 0 to taps - 1 do
                let ca = Char.code (Bytes.unsafe_get window p) in
                let cb = Char.code (Bytes.unsafe_get mf_t (mf_base + p)) in
                acc :=
                  Accumulator.add config.Axconv.accumulator !acc
                    (Lut.lookup_code lut ca cb)
              done;
              let corrected =
                !acc - (beta2.(k) * sp) - (beta1 * sf.(k)) + n_beta12.(k)
              in
              let v = alpha12.(k) *. float_of_int corrected in
              let v = match bias with Some b -> v +. b.(k) | None -> v in
              out_buf.{out_base + k} <- v)
        done;
        incr row
      done
    done
  done;
  (match profile with
  | Some p ->
    let lookups = plan.Im2col.rows * out_c * taps in
    Profile.count_lut_lookups p lookups;
    Profile.count_macs p lookups
  | None -> ());
  out
