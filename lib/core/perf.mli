(** Benchmark trajectory tracking and the regression gate.

    [bench -- gemm] writes a [BENCH_gemm.json] snapshot per run; this
    module parses those snapshots, appends them (labelled with a UTC
    timestamp) to a JSON-lines history file, and compares the current
    run against the {e best} value each metric ever reached — the CI
    gate behind [bench -- history] and the [perf] CLI subcommand.
    Throughput regresses when it falls below [1 - threshold] of the
    baseline; ns/MAC when it rises above [1 + threshold]. *)

type sample = { domains : int; seconds : float; images_per_sec : float }

type record = {
  label : string;
  bench : string;
      (** which benchmark produced the record ([default_bench] = "gemm",
          or "explore"); the regression gate only compares records of
          the same kind *)
  images : int;
  throughput : sample list;
  ns_per_mac : float option;
}

val default_bench : string
(** ["gemm"] — the benchmark kind assumed for history lines written
    before records carried a [bench] member. *)

val record_of_json : ?label:string -> Ax_obs.Json.t -> record
(** Parse a [BENCH_gemm.json]-shaped document ([throughput] sample list
    plus [micro.ns_per_mac]); missing fields degrade to empty/[None].
    [label] is the fallback when the document carries none; a missing
    [bench] member parses as {!default_bench}.  Members it does not
    know, such as the compressed-LUT summary of older history lines, are
    ignored. *)

val record_to_json : record -> Ax_obs.Json.t

val of_file : string -> record
(** Parse one snapshot file; the file name becomes the fallback label.
    Raises [Sys_error] / [Ax_obs.Json.Parse_error]. *)

val load_history : string -> record list
(** Parse a JSON-lines history file in order; a missing file is an
    empty history, unparseable lines are skipped (a truncated final
    line from a killed run must not wedge later gates). *)

val append_history : string -> record -> unit
(** Append one record as a single JSON line (creates the file). *)

val utc_label : unit -> string
(** Current time as ["YYYY-MM-DDTHH:MM:SSZ"] — the label
    [append_history] callers stamp records with. *)

val throughput_of : record -> int -> float option
(** Images/sec at a given domain count, when recorded. *)

(** {1 Regression gate} *)

type verdict = {
  metric : string;   (** [images_per_sec_d<n>] or [ns_per_mac] *)
  baseline : float;
  current : float;
  ratio : float;     (** current / baseline *)
  regressed : bool;
}

val default_threshold : float
(** [0.35] — generous because CI wall-clock is noisy; tighten locally
    via {!threshold_env_var}. *)

val threshold_env_var : string
(** ["TFAPPROX_PERF_THRESHOLD"]. *)

val threshold_from_env : unit -> float
(** The env override when set to a positive float, else
    {!default_threshold}. *)

val compare_records : threshold:float -> baseline:record -> current:record -> verdict list
(** One verdict per metric present in both records; zero or missing
    baselines are skipped. *)

val best_of : record list -> record option
(** Per-metric best over a history (max throughput per domain count,
    min ns/MAC); [None] on an empty history. *)

val gate : threshold:float -> history:record list -> current:record -> verdict list
(** [compare_records] against {!best_of} of the history records whose
    [bench] matches [current.bench] — the shared JSON-lines file can
    interleave gemm and explore records without either poisoning the
    other's baseline.  An empty (filtered) history yields no verdicts
    (first run of a kind always passes). *)

val regressed : verdict list -> bool

val verdict_to_json : verdict -> Ax_obs.Json.t
val report_to_json : threshold:float -> verdict list -> Ax_obs.Json.t

val pp_verdicts : Format.formatter -> verdict list -> unit
val pp_history : Format.formatter -> record list -> unit
