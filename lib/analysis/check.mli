(** Top-level drivers combining the analyzers — the engine behind the
    [tfapprox check] subcommand and the emulator's pre-flight
    verification. *)

val graph :
  ?input:Ax_tensor.Shape.t ->
  Ax_nn.Graph.t ->
  Diagnostic.t list * Quant_check.layer list
(** {!Graph_check.check} plus {!Quant_check.check}: every structural,
    wiring and quantization finding, and the per-layer accumulator
    report. *)

val multiplier :
  ?lut:Ax_arith.Lut.t -> Ax_netlist.Multipliers.t -> Diagnostic.t list
(** {!Netlist_check.check_multiplier}. *)

val registry_entry : Ax_arith.Registry.entry -> Diagnostic.t list
(** Tabulate the entry ({!Ax_arith.Registry.lut}) and check the table;
    netlist-derived entries additionally get their gate-level circuit
    analyzed and BDD-certified against that LUT. *)

(** {1 Pre-flight}

    {!Emulator.run} verifies the graph against the input's shape before
    every run, so a miswired or overflow-prone model, or an input of the
    wrong shape, fails loudly at the door instead of producing silently
    wrong accuracies. *)

val assert_runnable : ?input:Ax_tensor.Shape.t -> Ax_nn.Graph.t -> unit
(** Raises {!Diagnostic.Rejected} with the error-severity findings if
    the graph fails {!graph}; warnings and infos never reject.  Nothing
    is cached: every call runs the analysis for the shape it is given. *)
