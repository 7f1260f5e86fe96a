(** High-level emulator API — the operations a TFApprox user performs:
    pick a multiplier, transform a model, run inference on a backend,
    measure the accuracy impact. *)

val lut_of_multiplier : string -> Ax_arith.Lut.t
(** Tabulate a multiplier from {!Ax_arith.Registry} by name (raises
    [Failure] listing known names on a typo).  Cached. *)

val approximate_model :
  ?multiplier:string ->
  ?lut:Ax_arith.Lut.t ->
  ?round_mode:Ax_quant.Round.t ->
  ?chunk_size:int ->
  ?domains:int ->
  Ax_nn.Graph.t ->
  Ax_nn.Graph.t
(** The design flow of Sec. II: replace every Conv2D by AxConv2D wired
    to Min/Max range nodes.  Pass either a registry [multiplier] name or
    a prebuilt [lut] (exactly one; raises [Invalid_argument] otherwise).
    [domains] sets the AxConv2D row-level parallelism (see
    {!Ax_nn.Axconv.make_config}). *)

type backend =
  | Cpu_accurate    (** float GEMM convolution, no emulation *)
  | Cpu_direct      (** LUT emulation, nested-loop baseline of ref. [12] *)
  | Cpu_gemm        (** LUT emulation, Algorithm 1 on the CPU *)

val backend_name : backend -> string
(** Stable label used in span attributes and reports. *)

val run :
  ?verify:bool ->
  ?profile:Ax_nn.Profile.t ->
  ?domains:int ->
  ?tap:(Ax_nn.Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  backend:backend ->
  Ax_nn.Graph.t ->
  Ax_tensor.Tensor.t ->
  Ax_tensor.Tensor.t
(** Execute a (possibly transformed) graph.  [Cpu_accurate] on a
    transformed graph still emulates — the backend selects the AxConv2D
    strategy, it does not undo the transform.  With a [profile] the run
    is wrapped in an ["emulator.run"] span (backend and batch size as
    attributes) and the profile's ["images_per_sec"] gauge is set.

    Unless [verify:false] opts out, the graph is first passed through
    the static verifier ({!Ax_analysis.Check.assert_runnable}) against
    the input's shape: error-severity findings — miswired Fig. 1 range
    inputs, shape mismatches, accumulator overflow — raise
    {!Ax_analysis.Diagnostic.Rejected} before any tensor is touched.
    Nothing is cached, so every call checks the shape it is given.

    Without [domains] the whole batch runs as one graph evaluation, as
    in the original emulator.  With [domains:d] the batch is sharded
    {e per image} on the process-wide {!Ax_pool.Pool} and the shard
    outputs (plus per-shard profile phases and counters) are merged in
    image order.  Shard boundaries never depend on [d], so sharded runs
    are bit-identical for every [d] — including [domains:1], which is
    the reference the determinism tests compare against.  Note the
    per-image Min/Max quantization ranges legitimately differ from the
    un-sharded whole-batch ranges, which is why sharding is opt-in.

    [tap] is forwarded to {!Ax_nn.Exec.run} on every evaluation
    (including each per-image shard) — the activation fault-injection
    hook of {!Ax_resilience}.  A pure tap keeps sharded runs
    deterministic across domain counts.

    [domains] is validated up front ({!Ax_pool.Pool.validate_domains},
    the same 1..64 gate as [Axconv.make_config]) — out-of-range counts
    raise instead of being silently clamped by the pool.  A zero-image
    batch returns the empty tensor of the graph's output shape
    ({!Ax_nn.Exec.output_shape}) without evaluating anything. *)

val predictions : ?verify:bool -> ?profile:Ax_nn.Profile.t -> ?domains:int ->
  ?tap:(Ax_nn.Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  Ax_nn.Graph.t -> backend:backend -> Ax_tensor.Tensor.t -> int array
(** Class ids from the graph's softmax output. *)

val accuracy : ?verify:bool -> ?profile:Ax_nn.Profile.t -> ?domains:int ->
  ?tap:(Ax_nn.Graph.node -> Ax_tensor.Tensor.t -> Ax_tensor.Tensor.t) ->
  Ax_nn.Graph.t -> backend:backend -> Ax_data.Cifar.t -> float
(** Top-1 accuracy against dataset labels, in [0, 1].  [domains] and
    [tap] as in {!run}.  Raises [Invalid_argument] on an empty dataset
    (no accuracy exists over zero labels). *)

val agreement : int array -> int array -> float
(** Fraction of matching predictions — the "classification fidelity"
    metric for approximate-vs-exact comparisons.  Raises on length
    mismatch. *)

val estimate_gpu_time :
  ?device:Ax_gpusim.Device.t ->
  ?lut_hit_rate:float ->
  graph:Ax_nn.Graph.t ->
  input:Ax_tensor.Shape.t ->
  images:int ->
  unit ->
  [ `Accurate of Ax_gpusim.Cost.phases | `Approximate of Ax_gpusim.Cost.phases ]
  * Ax_gpusim.Cost.phases
(** The GPU-backend counterpart of {!run}: predicted execution phases
    for the graph on the device model, as
    [(kernel time tagged by pipeline kind, transfer/init time)].  A
    graph containing any Ax layer is costed as the approximate pipeline
    (chunk size taken from the first Ax layer), otherwise as the
    accurate cuDNN-style pipeline. *)
