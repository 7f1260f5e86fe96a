(** AxConv2D — the approximate 2D convolution of Algorithm 1.

    Functionally: both inputs are quantized with independent affine
    coefficients derived from the supplied ranges (the four extra scalar
    inputs of the paper's layer), every 8-bit product is resolved
    through the multiplier LUT, products accumulate into a wide
    accumulator, and the result is dequantized with the Eq. 4 correction
    terms — so the output is a float tensor with the same range
    semantics as the accurate layer.

    Structurally: the batch is split into fixed-size chunks (decoupling
    memory use from batch size), each chunk is lowered to a quantized
    patch matrix [Mp] with per-patch sums [Sp], and multiplied against
    the quantized filter matrix with per-filter sums [Sf] — the exact
    CPU-side mirror of the CUDA kernels. *)

type granularity =
  | Per_tensor
      (** one (alpha2, beta2) pair for the whole filter bank, derived
          from the supplied filter range — the paper's formulation *)
  | Per_channel
      (** one pair per output channel, derived from each filter's own
          weight range clipped to the supplied filter range (TF-style
          per-channel weight quantization under the layer's range
          contract); channels with unusable bounds — NaN or infinite
          weights — fall back to the supplied range, so every
          coefficient is finite.  Eq. 4 factors out per channel, so the
          correction algebra is unchanged. *)

type config = {
  lut : Ax_arith.Lut.t;
  round_mode : Ax_quant.Round.t;
  chunk_size : int;  (** images per chunk; Algorithm 1's chunking knob *)
  granularity : granularity;
  accumulator : Accumulator.t;
  domains : int;
      (** CPU parallelism for the Im2Cols and ApproxGEMM loops (the
          paper's CPU baselines ran on a multicore Xeon).  Work runs on
          the persistent {!Ax_pool.Pool} — the process-wide default
          unless {!conv} is handed one — and each patch/output row is
          computed entirely by one domain, so results are bit-identical
          for any value. *)
}

val default_chunk_size : int
(** 250 images, the memory/parallelism compromise used as default. *)

val make_config :
  ?round_mode:Ax_quant.Round.t ->
  ?chunk_size:int ->
  ?granularity:granularity ->
  ?accumulator:Accumulator.t ->
  ?domains:int ->
  Ax_arith.Lut.t ->
  config
(** Defaults: nearest-even rounding, chunk 250, per-tensor, wide
    accumulator, single domain. *)

val conv :
  ?profile:Profile.t ->
  ?pool:Ax_pool.Pool.t ->
  ?scratch:Scratch.t ->
  config:config ->
  input:Ax_tensor.Tensor.t ->
  input_range:Ax_quant.Range.t ->
  filter:Filter.t ->
  filter_range:Ax_quant.Range.t ->
  ?bias:float array ->
  spec:Conv_spec.t ->
  unit ->
  Ax_tensor.Tensor.t
(** Raises [Invalid_argument] on shape/bias mismatches.  When [profile]
    is given, wall-clock time is attributed to Fig. 2 phases
    (coefficient computation and quantization passes to [Quantization],
    the LUT-accumulate inner loop to [Lut], output assembly to [Other]),
    LUT lookups / MACs / chunks are counted once per chunk on the
    coordinating domain, and pool utilization gauges are published.
    When [config.domains > 1] the Im2Cols and GEMM row loops run on
    [pool] (default: the grown process-wide pool,
    {!Ax_pool.Pool.ensure}); all counters and results are bit-identical
    to the single-domain run.

    Chunk working buffers live in [scratch] (default: the calling
    domain's arena, {!Scratch.domain_local}), and the GEMM accumulator
    tile in the executing domain's own arena — so once the arenas have
    grown to the layer's chunk geometry, steady-state chunks allocate
    nothing (the CI [bench -- gemm] gate holds this at under 512 words
    per chunk).  Rounding with the deterministic modes is likewise
    allocation-free; [Stochastic] rounding boxes one float per tap. *)

val filter_coeffs :
  granularity ->
  Ax_arith.Signedness.t ->
  Filter.t ->
  Ax_quant.Range.t ->
  Ax_quant.Quantization.coeffs array
(** The per-output-channel quantization coefficients the convolution
    uses ([out_c] entries; all equal under [Per_tensor]). *)

val quantize_filters :
  Ax_arith.Signedness.t ->
  Ax_quant.Quantization.coeffs ->
  Ax_quant.Round.t ->
  Filter.t ->
  Bytes.t * int array
(** [(mf_t, sf)]: filter codes transposed to filter-major layout
    ([out_c] rows of [taps] codes, so the GEMM inner loop streams
    contiguously) and the per-filter sums of quantized values ([Sf] of
    Algorithm 1, Eq. 4's third sum) — per-tensor coefficients.  Exposed
    for the GPU cost model and for tests. *)

val quantize_filters_per_channel :
  Ax_arith.Signedness.t ->
  Ax_quant.Quantization.coeffs array ->
  Ax_quant.Round.t ->
  Filter.t ->
  Bytes.t * int array
(** Generalisation of {!quantize_filters} with one coefficient pair per
    output channel ([out_c] entries). *)
