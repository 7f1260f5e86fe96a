(** Graph executor.

    Values flow through nodes in topological order; tensor- and
    scalar-valued results share the {!value} type.  The executor is the
    CPU backend of the emulator: [Conv2d] runs the float GEMM path,
    [Ax_conv2d] runs {!Axconv.conv} (or {!Conv_direct.conv} when the
    [`Cpu_direct] strategy is selected, reproducing the baseline of
    ref. [12]). *)

type value = Tensor of Ax_tensor.Tensor.t | Scalar of float

type strategy =
  | Cpu_gemm    (** im2col + LUT GEMM (Algorithm 1 on the CPU) *)
  | Cpu_direct  (** nested-loop baseline *)

val run :
  ?profile:Profile.t ->
  ?strategy:strategy ->
  ?scratch:Scratch.t ->
  ?tap:(Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  Graph.t ->
  input:Ax_tensor.Tensor.t ->
  Ax_tensor.Tensor.t
(** Evaluate the graph on one input batch and return the output node's
    tensor.  Raises [Invalid_argument] when the output is scalar-valued
    or an op receives a value of the wrong kind.

    [scratch] is the buffer arena the convolution hot paths draw their
    chunk working buffers from (default: the calling domain's arena) —
    reused across layers and across calls, so repeated batches run
    allocation-free in steady state.

    [tap] is applied to every tensor-valued node output before its
    consumers read it; the returned tensor replaces the node's value.
    An identity tap is behaviour-neutral (bit-identical run); a
    rewriting tap models faults in inter-layer activation memory
    ({!Ax_resilience}) — downstream nodes, including the Min/Max range
    nodes of transformed graphs, see the corrupted values exactly as
    approximate hardware would. *)

val run_value :
  ?profile:Profile.t ->
  ?strategy:strategy ->
  ?scratch:Scratch.t ->
  ?tap:(Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  Graph.t ->
  input:Ax_tensor.Tensor.t ->
  value

val run_all :
  ?profile:Profile.t ->
  ?strategy:strategy ->
  ?scratch:Scratch.t ->
  ?tap:(Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  Graph.t ->
  input:Ax_tensor.Tensor.t ->
  value array
(** Evaluate the whole graph and return every node's value, indexed by
    node id — the hook calibration and debugging tools use to observe
    intermediate activations. *)

val output_shape :
  Graph.t -> input:Ax_tensor.Shape.t -> Ax_tensor.Shape.t
(** The shape {!run} would return for a batch of the given input shape:
    the output node's entry of {!Graph.infer_shapes}, computed without
    running any arithmetic.  This is how {!Ax_core.Emulator} shapes the
    output of an empty (zero-image) batch.  Raises [Invalid_argument]
    if the graph output is scalar-valued or a node cannot run on its
    input shapes ({!Graph.node_shape}). *)
