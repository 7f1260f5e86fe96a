(** Netlist analyzer: structural lint over {!Ax_netlist.Circuit.t} plus
    a formal certification that a multiplier netlist computes exactly
    the function tabulated in a 2{^16}-entry LUT.

    The certification is BDD-based: each product bit's column of the
    truth table becomes its canonical BDD over the circuit's 16 input
    variables ({!Ax_netlist.Bdd.of_table}, built bottom-up) and is
    compared, node for node in one manager, against the circuit's
    gate-by-gate {!Ax_netlist.Bdd.of_circuit}.  It shares no code with
    the netlist {e simulator} that produced the LUT in the first place
    (independent evidence, in the spirit of the repo's formal tests). *)

val check_circuit : Ax_netlist.Circuit.t -> Diagnostic.t list
(** Structural findings: no registered outputs, fan-in referencing a
    node at or above its own position, primary inputs driving nothing
    ([net/unused-input], Info — legitimate in truncated multipliers)
    and combinational gates that reach no output ([net/dead-gate],
    Info). *)

val certify_lut :
  lut:Ax_arith.Lut.t -> Ax_netlist.Multipliers.t -> Diagnostic.t list
(** [certify_lut ~lut m] proves or refutes that [m]'s raw product bus
    equals the raw 16-bit entries of [lut] on every operand pair.  One
    [net/lut-mismatch] finding per differing product bit, with the
    exact count of disagreeing operand pairs (the model count of the
    two BDDs' XOR).  Emits
    [net/width-mismatch] (and skips the proof) when [m] is not an
    8x8 -> 16-bit multiplier. *)

val check_multiplier :
  ?lut:Ax_arith.Lut.t -> Ax_netlist.Multipliers.t -> Diagnostic.t list
(** Circuit structure plus multiplier-interface width checks; when
    [lut] is given, also {!certify_lut}. *)
