(** Catalogue of 8-bit multipliers available to the emulator.

    Plays the role the EvoApprox8b library plays for the original
    TFApprox: a named collection of candidate designs whose truth tables
    can be dropped into the accelerator model.  Two provenances exist:
    fast behavioural models, and functions extracted by exhaustively
    simulating a gate-level netlist from {!Ax_netlist} (the flow a real
    approximate-circuit library is produced with). *)

type provenance =
  | Behavioural      (** closed-form arithmetic model *)
  | Netlist_derived  (** exhaustive simulation of a gate netlist *)

type entry = {
  name : string;
  description : string;
  signedness : Signedness.t;
  provenance : provenance;
  multiply : int -> int -> int;  (** value-domain product *)
  netlist : (unit -> Ax_netlist.Multipliers.t) option;
      (** the gate-level source of a {!Netlist_derived} entry, exposed
          so the static analyzer can certify the tabulated LUT against
          the circuit itself ([None] for behavioural models) *)
}

val all : unit -> entry list
(** Every catalogued multiplier (built-ins plus {!register}ed ones).
    Netlist-derived entries are simulated lazily on first
    multiplication. *)

val register : entry -> unit
(** Add a user-defined multiplier (e.g. an explored netlist) to the
    catalogue, making it addressable by name everywhere a registry name
    is accepted.  Raises [Invalid_argument] on a duplicate name. *)

val names : unit -> string list
val find : string -> entry option
val find_exn : string -> entry
(** Raises [Failure] listing the known names when the lookup fails. *)

val lut : entry -> Lut.t
(** Tabulate an entry (cached per entry name). *)

val exact_for : Signedness.t -> entry
(** The exact multiplier of the given signedness. *)
