(** Depthwise 2D convolution, accurate and approximate.

    The paper (Sec. II) introduces "an alternative approximate 2D
    convolutional layer to each type of the 2D convolution" available in
    TensorFlow; depthwise convolution (the backbone of the MobileNet
    family) is the second such type.  Each input channel [c] is
    convolved with its own [kh x kw x multiplier] filter slice,
    producing output channels [c*multiplier .. c*multiplier+multiplier-1].

    The filter bank reuses {!Filter.t} with [in_c] = input channels and
    [out_c] = channel multiplier.

    This module is a lowering, not a kernel: a layer with [in_c]
    channels runs as [in_c] one-channel convolutions on the one conv
    core.  Channel [c]'s input plane meets the [kh x kw x 1 x
    multiplier] slice of the bank (and its [multiplier] bias entries),
    and the result is scattered into output channels
    [c*multiplier ..].  With one channel per conv the reduction length
    of Eq. 4 is [N = kh*kw] and the [Sp]/[Sf] corrections are per input
    channel, exactly as a depthwise layer needs. *)

val output_shape :
  spec:Conv_spec.t -> Ax_tensor.Shape.t -> Filter.t -> Ax_tensor.Shape.t
(** Output is [n x out_h x out_w x (in_c * multiplier)].  Raises
    [Invalid_argument] when input channels do not match the filter. *)

val macs : spec:Conv_spec.t -> Ax_tensor.Shape.t -> Filter.t -> int

val float_conv :
  input:Ax_tensor.Tensor.t ->
  filter:Filter.t ->
  ?bias:float array ->
  spec:Conv_spec.t ->
  unit ->
  Ax_tensor.Tensor.t
(** Accurate float reference: each channel through {!Conv_float.direct}.
    [bias] has [in_c * multiplier] entries. *)

type conv =
  config:Axconv.config ->
  input:Ax_tensor.Tensor.t ->
  input_range:Ax_quant.Range.t ->
  filter:Filter.t ->
  filter_range:Ax_quant.Range.t ->
  ?bias:float array ->
  spec:Conv_spec.t ->
  unit ->
  Ax_tensor.Tensor.t
(** An approximate convolution, the shape of {!Axconv.conv} and
    {!Conv_direct.conv}. *)

val approx_conv :
  ?profile:Profile.t ->
  ?conv:conv ->
  config:Axconv.config ->
  input:Ax_tensor.Tensor.t ->
  input_range:Ax_quant.Range.t ->
  filter:Filter.t ->
  filter_range:Ax_quant.Range.t ->
  ?bias:float array ->
  spec:Conv_spec.t ->
  unit ->
  Ax_tensor.Tensor.t
(** The AxDepthwiseConv2D layer: each channel through [conv] (default
    {!Axconv.conv}; the executor passes the conv its strategy picks).
    Weights quantize per tensor from [filter_range], whatever
    [config.granularity] says.  Every other field of [config] applies
    as it does to an AxConv2D layer: [domains] and [chunk_size] split
    each channel's conv, and the LUT, rounding and accumulator are
    read the same way.  With [profile], the channel copies are charged
    to [Other] and each channel's conv charges its own phases and
    counts its own lookups and MACs. *)
