module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor

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

(* Channel [c] of the input is a one-channel convolution against the
   [kh x kw x 1 x mult] slice of the bank; its [mult] output channels
   land at [c*mult ..] of the depthwise output.  Copying the plane in
   and the result out is charged to [Other]; the conv charges its own
   phases. *)
let lower ?profile ~input ~filter ?bias ~spec conv =
  check_bias filter bias;
  let s = Tensor.shape input in
  let out = Tensor.create (output_shape ~spec s filter) in
  let in_c = Shape.(s.c) and mult = Filter.out_c filter in
  let kh = Filter.kh filter and kw = Filter.kw filter in
  let plane =
    Tensor.create (Shape.make ~n:Shape.(s.n) ~h:Shape.(s.h) ~w:Shape.(s.w) ~c:1)
  in
  let positions = Tensor.num_elements plane in
  let src = Tensor.buffer input and plane_buf = Tensor.buffer plane in
  let dst = Tensor.buffer out and weights = Filter.raw_data filter in
  for c = 0 to in_c - 1 do
    Profile.time profile Profile.Other (fun () ->
        for p = 0 to positions - 1 do
          plane_buf.{p} <- src.{(p * in_c) + c}
        done);
    (* Weight [j] of tap [t] sits at [(t*in_c + c)*mult + j] in HWCK. *)
    let slice =
      Filter.of_array ~kh ~kw ~in_c:1 ~out_c:mult
        (Array.init (kh * kw * mult) (fun i ->
             weights.((((i / mult * in_c) + c) * mult) + (i mod mult))))
    in
    let bias = Option.map (fun b -> Array.sub b (c * mult) mult) bias in
    let part = Tensor.buffer (conv ~input:plane ~filter:slice ~bias) in
    let out_positions = Bigarray.Array1.dim part / mult in
    Profile.time profile Profile.Other (fun () ->
        for p = 0 to out_positions - 1 do
          for j = 0 to mult - 1 do
            dst.{(((p * in_c) + c) * mult) + j} <- part.{(p * mult) + j}
          done
        done)
  done;
  out

let float_conv ~input ~filter ?bias ~spec () =
  lower ~input ~filter ?bias ~spec (fun ~input ~filter ~bias ->
      Conv_float.direct ~input ~filter ?bias ~spec ())

type conv =
  config:Axconv.config ->
  input:Tensor.t ->
  input_range:Ax_quant.Range.t ->
  filter:Filter.t ->
  filter_range:Ax_quant.Range.t ->
  ?bias:float array ->
  spec:Conv_spec.t ->
  unit ->
  Tensor.t

let approx_conv ?profile
    ?(conv : conv = Axconv.conv ?profile ?pool:None ?scratch:None) ~config
    ~input ~input_range ~filter ~filter_range ?bias ~spec () =
  let config = { config with Axconv.granularity = Axconv.Per_tensor } in
  lower ?profile ~input ~filter ?bias ~spec (fun ~input ~filter ~bias ->
      conv ~config ~input ~input_range ~filter ~filter_range ?bias ~spec ())
