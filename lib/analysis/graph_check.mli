(** Static verifier for the dataflow-graph IR.

    Three rule families, all reported through {!Diagnostic}:

    - {b structure} — arity, unknown/forward input references, missing
      or duplicated Input placeholders, nodes unreachable from the
      output, scalar-valued graph outputs;
    - {b shapes} — full shape-and-channel inference by
      {!Ax_nn.Graph.node_shape}, the rule every shape reader uses
      (batch-norm vectors, dense weight rows, pool windows, residual
      joins, shortcut channels), plus bias-length checks;
    - {b Fig. 1 wiring} — every [Ax_conv2d] / [Ax_depthwise_conv2d]
      scalar input is traced back to a [Min_reduce] / [Max_reduce] over
      the convolution's own data tensor (or an explicit constant), the
      shape the paper's graph transform guarantees.

    A malformed upstream node poisons its consumers: follow-on findings
    that are mere consequences of an already-reported defect are
    suppressed, so one broken edge yields one diagnostic. *)

val check :
  ?input:Ax_tensor.Shape.t -> Ax_nn.Graph.t -> Diagnostic.t list
(** All structural and wiring findings.  Shape inference runs only when
    [input] is given (the placeholder shape is not part of the graph). *)
