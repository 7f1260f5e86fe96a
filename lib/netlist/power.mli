(** Unit-gate hardware cost model.

    Area is reported in transistor-count equivalents of standard static
    CMOS cells, delay as a unit-delay critical path weighted by per-gate
    logical effort, and dynamic power as the sum over gates of switching
    activity times input capacitance, under the standard zero-delay /
    spatial-independence signal-probability model with uniform random
    primary inputs.  These are relative figures of merit for comparing
    approximate-circuit candidates, not absolute silicon numbers — which
    is also how the approximate-computing literature uses them. *)

type report = {
  area : float;       (** transistor-equivalent area *)
  delay : float;      (** critical path, unit-delay-per-effort *)
  power : float;      (** relative dynamic (switching) power *)
  gates : int;        (** combinational gate count *)
  pdp : float;        (** power-delay product *)
}

val area_of_gate : Gate.t -> float
val delay_of_gate : Gate.t -> float

val signal_probabilities : Circuit.t -> float array
(** Probability of each node being logic-1 under independent uniform
    inputs, by closed-form propagation (independence approximation:
    {e wrong} at reconvergent fan-out — e.g. [x AND (NOT x)] propagates
    to 0.25 instead of 0).  Kept as the cheap width-independent
    estimator and as the documented foil the formal tests measure. *)

val exact_inputs_limit : int
(** [20] — the widest circuit {!exact_signal_probabilities} accepts
    (2{^20} patterns, {!Sim.exhaustive_inputs_limit}). *)

val probabilities_of_sweep : Sim.sweep -> float array
(** Per-node probability of logic 1 over a sweep's patterns:
    [ones.(i) / patterns].  What {!exact_signal_probabilities} returns for
    {!Sim.exhaustive}, and what a caller that already holds a sweep (the
    explore search tabulating a candidate) passes to {!analyze}. *)

val exact_signal_probabilities : Circuit.t -> float array
(** Exact per-node signal probabilities from one table-less
    {!Sim.exhaustive} sweep over all [2^inputs] patterns, for any number
    of outputs.  No independence approximation; this is what {!analyze}
    uses for circuits of at most {!exact_inputs_limit} inputs.  Raises
    [Invalid_argument] on wider circuits. *)

val monte_carlo_signal_probabilities :
  seed:int -> samples:int -> Circuit.t -> float array
(** Per-node probabilities estimated from [samples] seeded uniform
    random vectors (rounded up to a multiple of 64) through
    {!Sim.sampled} — the independent cross-check the switching-activity
    tests compare {!exact_signal_probabilities} and
    {!signal_probabilities} against.  One splitmix64 word per 64
    vectors and input, split into two {!Sim.lanes}-lane sweep words, so
    the estimate is a pure function of [(seed, samples)]. *)

val analyze : ?probabilities:float array -> Circuit.t -> report
(** Cost report.  Switching activity is computed from per-node signal
    probabilities: by default {!exact_signal_probabilities} when the
    circuit has at most {!exact_inputs_limit} inputs (so the power and
    PDP figures the explore scorer ranks by are free of the
    reconvergent-fanout error), else {!signal_probabilities}.
    [probabilities] overrides the estimate (length-checked). *)

val pp_report : Format.formatter -> report -> unit
