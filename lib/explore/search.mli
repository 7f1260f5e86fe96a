(** Certified evolutionary design-space exploration of 8x8 multipliers.

    The loop the emulator was built to close, from netlist to network
    accuracy and energy: seed a population from the structural
    generators, mutate netlist genomes ({!Genome}), sweep each mutant
    with {!Ax_netlist.Opt.strip_dead}, tabulate its 2{^16}-entry LUT
    and its per-node signal probabilities with one
    {!Ax_netlist.Sim.exhaustive} sweep (candidates fanned out over
    {!Ax_pool.Pool}, deduplicated on the coordinator), BDD-certify the
    netlist against that LUT ({!Ax_analysis.Netlist_check} — an
    uncertifiable candidate is rejected and never scored), then score
    the survivors on two axes:
    end-to-end top-1 accuracy through the existing emulator (candidates
    fanned out over {!Ax_pool.Pool}) and relative MAC energy from
    {!Ax_gpusim.Energy}, keeping a Pareto archive ({!Pareto}).

    {b Determinism contract.}  A run is a pure function of its
    {!config}: mutation randomness comes from a seeded
    {!Ax_tensor.Rng} stream on the coordinator, candidates are deduplicated and ordered there,
    and both pool fan-outs (sweeps, then certification and scoring) use
    [map_array] (index-ordered results), so
    {!front_json_string} and {!front_csv_string} are byte-identical
    across repeated runs, pool sizes and [TFAPPROX_DOMAINS] settings.
    [wall_seconds] is the one nondeterministic field and is deliberately
    excluded from both renderings. *)

type model = Resnet8 | Lenet

val model_name : model -> string
val model_of_string : string -> model
(** Raises [Failure] (listing the known names) on anything else —
    surfaced as a usage error by the CLI. *)

type config = {
  seed : int;
  generations : int;   (** mutation rounds after the seeded population *)
  population : int;    (** candidates per round *)
  budget : int;        (** max candidate evaluations; [<= 0] means
                           [population * (generations + 1)] *)
  images : int;        (** dataset size for the accuracy axis *)
  model : model;
  mutations : int;     (** mutation operations per child *)
  max_domains : int option;
      (** cap on pool domains used for candidate evaluation ([None] =
          whole pool); results are identical for every value *)
}

val default_config : config
(** seed 1, 4 generations of 8 on ResNet-8 over 32 images, 2 mutations
    per child, no explicit budget. *)

type verdict =
  | Scored of Pareto.point
  | Rejected of { name : string; reason : string }

type result = {
  config : config;
  front : Pareto.point list;     (** non-dominated, {!Pareto.front} order *)
  evaluated : int;               (** candidates run through the full
                                     certify-and-score pipeline *)
  rejected : int;
  cache_hits : int;              (** duplicate mutants skipped outright *)
  rejections : (string * string) list;  (** name, reason; oldest first *)
  wall_seconds : float;
}

val tabulate : Ax_netlist.Multipliers.t -> Ax_arith.Lut.t
(** Exhaustive tabulation of an (8x8, unsigned) candidate into the
    emulator's LUT format, read from one {!Ax_netlist.Sim.exhaustive}
    sweep (the search takes the same sweep's one-counts for the power
    report).  Raises [Invalid_argument] on other interface shapes. *)

val certify_candidate :
  Ax_netlist.Multipliers.t -> lut:Ax_arith.Lut.t -> (unit, string) Stdlib.result
(** The search's admission decision, exposed for tests and external
    candidates: structural lint plus BDD certification against [lut];
    [Error reason] carries the first error-severity rule (Info findings
    such as [net/unused-input] do not reject). *)

val run : ?pool:Ax_pool.Pool.t -> config -> result
(** Run the search on [pool] (default: the process-wide pool).  Raises
    [Invalid_argument] on a non-positive population or image count, a
    negative generation count, or an out-of-range [max_domains]. *)

val front_json_string : result -> string
(** The front plus run counters as one deterministic JSON document
    (fixed [%.6f] float rendering, key order fixed). *)

val front_csv_string : result -> string
(** The front as CSV with a header line, same formatting discipline. *)

val pp_front : Format.formatter -> result -> unit
(** Human-readable front table for the CLI. *)
