(** Image-to-columns lowering (phase (i) of Algorithm 1).

    A {!plan} captures the geometry: the patch matrix has one row per
    output position ([n * out_h * out_w] rows) and one column per filter
    tap ([kh * kw * in_c]), so the convolution becomes a plain matrix
    product with the HWCK filter bank.  The same plan drives the float
    reference path and the quantized emulator path; the latter also
    produces the per-patch dequantization sums [Sp] of Eq. 4. *)

type plan = private {
  input_shape : Ax_tensor.Shape.t;
  kh : int;
  kw : int;
  stride : int;
  dilation : int;
  out_h : int;
  out_w : int;
  pad_top : int;
  pad_left : int;
  rows : int;       (** n * out_h * out_w *)
  patch_len : int;  (** kh * kw * in_c *)
}

val make :
  Ax_tensor.Shape.t -> kh:int -> kw:int -> spec:Conv_spec.t -> plan

val to_matrix :
  ?scratch:Scratch.t -> plan -> Ax_tensor.Tensor.t -> Ax_tensor.Matrix.t
(** Float patch matrix, filled serially; padding cells hold 0.  With
    [scratch] the matrix data lives in the arena's float buffer
    (oversized; valid cells are [rows * patch_len]) instead of a fresh
    allocation. *)

val to_codes :
  plan ->
  Ax_tensor.Tensor.t ->
  coeffs:Ax_quant.Quantization.coeffs ->
  round_mode:Ax_quant.Round.t ->
  signedness:Ax_arith.Signedness.t ->
  Bytes.t * int array
(** [(mp, sp)]: the quantized patch matrix as raw LUT codes (row-major,
    [rows * patch_len]) and the per-row sums of quantized {e values}
    ([Sp] in Algorithm 1).  Padding cells quantize the real value 0 —
    i.e. they hold the zero-point — so they participate in the LUT sum
    and in [Sp] exactly as a hardware zero-padded accelerator would.
    Filled serially into freshly allocated buffers. *)

val to_codes_range :
  ?pool:Ax_pool.Pool.t ->
  ?domains:int ->
  scratch:Scratch.t ->
  plan ->
  Ax_tensor.Tensor.t ->
  row_lo:int ->
  row_hi:int ->
  coeffs:Ax_quant.Quantization.coeffs ->
  round_mode:Ax_quant.Round.t ->
  signedness:Ax_arith.Signedness.t ->
  Bytes.t * int array
(** {!to_codes} restricted to patch rows [row_lo, row_hi) of the plan,
    written to the arena's buffers indexed from 0 (plan row [r] lands at
    buffer row [r - row_lo]).  This is how the chunked GEMM lowers one
    chunk at a time against the whole-batch plan — no per-chunk batch
    slice, no per-chunk allocation, bit-identical codes for any
    chunking.  With a [pool] and [domains > 1] (default 1) the rows are
    claimed across domains at the pool's auto grain; each row writes
    only its own cells, so the codes are bit-identical to the serial
    fill.  Raises [Invalid_argument] if the range leaves the plan. *)
