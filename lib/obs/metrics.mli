(** Named counters, gauges and latency histograms for the emulator hot
    paths.

    Counters are monotonic integers (LUT lookups, MACs, im2col bytes,
    texture-cache hits); gauges are instantaneous floats (images/sec,
    hit rate); histograms are log-bucketed latency distributions
    (per-chunk GEMM seconds, per-image emulator seconds) with
    p50/p90/p99 estimation.  Handles returned by {!counter} / {!gauge} /
    {!histogram} are plain mutable cells, so hot-path updates cost a few
    arithmetic ops and no hashing.  {!snapshot} / {!diff} give a
    before/after view of a region of interest; snapshots render to JSON
    and Prometheus text.

    Cells are {e not} thread-safe: all accounting happens on the
    coordinator domain, worker results being folded in post-join
    ({!merge_histogram} and the counter merges in
    [Emulator.merge_shard_profile]). *)

type t
type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create; fresh counters start at 0. *)

val incr : counter -> int -> unit
(** Raises [Invalid_argument] on a negative increment — counters are
    monotonic by contract. *)

val value : counter -> int

val add : t -> string -> int -> unit
(** [add t name n] = [incr (counter t name) n] — for cold call sites. *)

val gauge : t -> string -> gauge
(** Find-or-create; fresh gauges read 0. *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val set_gauge : t -> string -> float -> unit
(** [set_gauge t name v] = [set (gauge t name) v]. *)

(** {1 Histograms}

    Every histogram shares one fixed geometry: {!hist_bucket_count} log
    buckets with {!hist_per_octave} buckets per factor of two, spanning
    {!hist_lo} up to ~1.8e4 (nanoseconds to hours, when observations
    are seconds).  Quantile estimates are the geometric midpoint of the
    nearest-rank bucket, clamped to the observed min/max, so the
    relative error is bounded by one bucket width — a factor of
    2{^ 1/4} ≈ 1.19.  The shared geometry is what makes {!diff} and
    {!merge_histogram} exact bucket-by-bucket. *)

val hist_lo : float
val hist_per_octave : int
val hist_bucket_count : int

val bucket_index : float -> int
(** The bucket an observation falls into (non-finite and sub-{!hist_lo}
    values land in bucket 0; overflow clamps to the last bucket). *)

val bucket_lower_bound : int -> float
(** Exclusive lower bound of bucket [i]; 0 for bucket 0. *)

val bucket_upper_bound : int -> float
(** Inclusive upper bound of bucket [i]; [infinity] for the last. *)

val histogram : t -> string -> histogram
(** Find-or-create; fresh histograms are empty. *)

val observe : histogram -> float -> unit
(** Record one observation: O(1), allocation-free. *)

val observe_named : t -> string -> float -> unit
(** [observe_named t name v] = [observe (histogram t name) v] — for
    cold call sites. *)

val h_count : histogram -> int
val h_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0, 1] (clamped); [nan] when empty. *)

val reset : t -> unit
(** Zero every counter, gauge and histogram (handles stay valid). *)

val observe_gc : t -> unit
(** Publish process-lifetime [Gc.quick_stat] readings as gauges:
    [gc_minor_words], [gc_promoted_words], [gc_major_words],
    [gc_minor_collections], [gc_major_collections], [gc_compactions],
    [gc_heap_words].  Gauges, so repeated publication is idempotent;
    per-phase minor words live in [Ax_nn.Profile]. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  p50 : float;  (** [nan] when empty *)
  p90 : float;
  p99 : float;
  buckets : (int * int) list;
      (** [(bucket index, count)], ascending, non-empty buckets only *)
}

type snapshot = {
  counters : (string * int) list;   (** sorted by name *)
  gauges : (string * float) list;   (** sorted by name *)
  histograms : (string * hist_snapshot) list;  (** sorted by name *)
}

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter values and histogram buckets become [after - before] (0
    floor for cells that vanished across a reset); gauges keep their
    [after] reading.  Diffed histogram quantiles are recomputed from the
    diffed buckets; min/max keep the [after] extremes (the region's own
    extremes are unrecoverable from cumulative snapshots). *)

val merge_histogram : t -> string -> hist_snapshot -> unit
(** Fold a snapshot histogram into a live registry — the coordinator's
    post-join shard merge.  Bucket counts are integer sums, so merging
    shards in index order is bit-identical across pool sizes.  Empty
    snapshots are a no-op. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> float option
val find_histogram : snapshot -> string -> hist_snapshot option

val to_json : snapshot -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{...}}]; histogram
    entries carry count/sum/min/max/p50/p90/p99 (empty quantiles render
    as [null]). *)

val to_prometheus : ?namespace:string -> snapshot -> string
(** Prometheus text exposition format; metric names are prefixed with
    [namespace] (default ["tfapprox"]) and sanitized to [[a-zA-Z0-9_]].
    Every family gets [# HELP] (carrying the raw name) and [# TYPE]
    lines; distinct raw names that sanitize to the same exposition name
    (e.g. [lut.hits] vs [lut/hits]) are deduped deterministically with
    [_2], [_3], ... suffixes in sorted raw-name order.  Histograms emit
    cumulative [_bucket{le="..."}] samples plus [+Inf], [_sum] and
    [_count]. *)

val pp : Format.formatter -> snapshot -> unit
