(** Phase-attributed wall-clock accounting, matching the four categories
    of the paper's Fig. 2: initialization, quantization (including
    dequantization and min/max), LUT lookups, and everything else
    (Im2Cols, GEMM bookkeeping, pooling, ...).

    The four phases are slots of one ledger holding seconds and minor
    words; the counters live in an {!Ax_obs.Metrics} registry, and an
    optional {!Ax_obs.Trace} tracer receives the per-node / per-chunk
    spans opened by the executor and convolution kernels. *)

type phase = Init | Quantization | Lut | Other

type t

val create : ?trace:Ax_obs.Trace.t -> unit -> t
(** A fresh profile; [trace] attaches a tracer so instrumented code
    records spans alongside the phase totals. *)

val reset : t -> unit
(** Zero phases and counters and clear the attached tracer (if any). *)

val time : t option -> phase -> (unit -> 'a) -> 'a
(** Run a thunk and charge its wall-clock time and the minor words the
    calling domain allocated to a phase; just runs it when no profile is
    given.  Nested calls charge the inner phase and refund the outer
    one, so phases never double-count.  A charge reads the clock and
    the unboxed [Gc.minor_words] twice each (~0.1 µs) and allocates
    nothing itself. *)

val add_seconds : t -> phase -> float -> unit
(** Charge time measured externally (the Fig. 2 scaling).  Negative
    values are accepted (refunds); {!breakdown} clamps them. *)

val merge : into:t -> t -> unit
(** Fold a shard's phase seconds and minor words, counters and
    histograms into [into].  Seconds are float sums and counters and
    histogram buckets integer sums, so merging shards in index order
    keeps every counter bit-identical across pool sizes. *)

val count_lut_lookups : t -> int -> unit
val count_macs : t -> int -> unit

val count : t -> string -> int -> unit
(** Increment an arbitrary named counter in {!metrics} (im2col bytes,
    chunk count, ...). *)

val observe : t -> string -> float -> unit
(** Record one observation into a named latency histogram in {!metrics}
    ([gemm_chunk_seconds], [emulator_image_seconds],
    [exec_node_seconds]). *)

val seconds : t -> phase -> float

val minor_words : t -> phase -> float
(** Minor-heap words allocated while the phase was the innermost one. *)

val total_seconds : t -> float
val lut_lookups : t -> int
val macs : t -> int

val metrics : t -> Ax_obs.Metrics.t
(** The counter/gauge registry backing this profile ("lut_lookups" and
    "macs" plus whatever instrumented code added). *)

val publish_gc : t -> unit
(** Export each phase's minor words as the gauge
    [phase_<init|quantization|lut|other>_minor_words] and the
    process-lifetime GC readings ([Metrics.observe_gc]) into
    {!metrics}. *)

val trace : t -> Ax_obs.Trace.t option
val set_trace : t -> Ax_obs.Trace.t -> unit

val span :
  t option -> name:string -> ?attrs:(string * string) list -> (unit -> 'a) -> 'a
(** Record a span on the attached tracer; just runs the thunk when no
    profile or no tracer is attached, so instrumentation stays
    behavior-neutral. *)

type breakdown = {
  init_pct : float;
  quantization_pct : float;
  lut_pct : float;
  other_pct : float;
}

val breakdown : t -> breakdown
(** Percentages of the total (all zero when nothing was recorded).
    Phases driven negative by {!add_seconds} refunds are clamped to 0
    before shares are computed. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
