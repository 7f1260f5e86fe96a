(** Dataflow-graph IR — the stand-in for the TensorFlow graph the paper
    transforms (Fig. 1).

    Nodes are appended in topological order by a builder; every node
    names its operation and its input nodes.  Tensor-valued and
    scalar-valued nodes share one value space, mirroring how the
    AxConv2D op consumes four extra scalar inputs for the quantization
    ranges. *)

type node_id = int

type op =
  | Input
      (** the graph's single tensor placeholder *)
  | Conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
    }
  | Ax_conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
      config : Axconv.config;
    }
      (** inputs: data, in_min, in_max, filter_min, filter_max *)
  | Depthwise_conv2d of {
      filter : Filter.t;  (** [out_c] is the channel multiplier *)
      bias : float array option;
      spec : Conv_spec.t;
    }
  | Ax_depthwise_conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
      config : Axconv.config;
    }
      (** same five inputs as [Ax_conv2d] *)
  | Min_reduce  (** tensor -> scalar minimum (Fig. 1's Min node) *)
  | Max_reduce  (** tensor -> scalar maximum (Fig. 1's Max node) *)
  | Const_scalar of float
  | Relu
  | Max_pool of { size : int; stride : int }
  | Global_avg_pool
  | Dense of { weights : Ax_tensor.Matrix.t; bias : float array }
  | Batch_norm of { scale : float array; shift : float array }
  | Add  (** residual join; two tensor inputs *)
  | Softmax
  | Shortcut_pad of { stride : int; out_c : int }

type node = { id : node_id; name : string; op : op; inputs : node_id list }

type t

val arity : op -> int
(** Number of inputs the op consumes. *)

val op_name : op -> string

(** {1 Building} *)

type builder

val builder : unit -> builder

val add : builder -> name:string -> op -> node_id list -> node_id
(** Appends a node.  Raises {!Nn_error.Error} ([Unknown_input] /
    [Arity_mismatch]) if an input id is unknown (forward references are
    impossible by construction) or the arity is wrong. *)

val finalize : builder -> output:node_id -> t
(** Raises {!Nn_error.Error} ([Unknown_output]) when [output] names no
    node. *)

val of_nodes_unchecked : output:node_id -> node list -> t
(** Assembles a graph from raw nodes with {e no} validation — ids,
    arities and input references are taken as given.  Exists so the
    static verifier (lib/analysis) and fuzzers can be exercised on
    malformed graphs that the builder rightly refuses to construct.  Production code must use the builder; executing an
    unchecked graph can raise anywhere. *)

(** {1 Inspection} *)

val nodes : t -> node array
(** Topologically ordered. *)

val output : t -> node_id
val node : t -> node_id -> node
val size : t -> int

val find_by_name : t -> string -> node option

val map_ops : (node -> op) -> t -> t
(** [map_ops f t] rebuilds the graph with each node's op replaced by
    [f node], keeping ids, names and wiring — the hook fault-injection
    and LUT-swapping tools use to substitute layer parameters (e.g. a
    corrupted multiplier table) without re-deriving the topology.
    Raises {!Nn_error.Error} ([Op_rewrite]) if [f] changes an op's
    arity. *)

val conv_layers : t -> node list
(** All convolution nodes ([Conv2d], [Ax_conv2d] and their depthwise
    variants), in order — the layers Table I counts as [L]. *)

val node_shape :
  input:Ax_tensor.Shape.t ->
  (node_id -> Ax_tensor.Shape.t option) ->
  node ->
  Ax_tensor.Shape.t option
(** [node_shape ~input shape_of n] is the output shape of [n] ([None]
    for a scalar-valued op) given the graph input's shape and
    [shape_of], the shape of each of [n]'s inputs — the one per-op shape
    rule.  Raises [Invalid_argument] when the node cannot run on those
    shapes: a channel or feature count that differs from the weights', a
    residual join of two different shapes, batch-norm vectors of the
    wrong length, a shortcut that shrinks channels, a non-positive pool
    size or stride, or a pool window larger than its input. *)

val infer_shapes :
  t -> input:Ax_tensor.Shape.t -> Ax_tensor.Shape.t option array
(** Static shape of every node, indexed by id ([None] for scalars):
    {!node_shape} folded over the graph.  Raises as {!node_shape} does,
    at the first node that cannot run. *)

val total_macs : t -> input:Ax_tensor.Shape.t -> int
(** MAC count of all convolution layers for a given input shape,
    propagating shapes through the graph. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per node: name, op, inputs — a readable rendering of
    Fig. 1-style graphs. *)

val to_dot : t -> string
(** Graphviz rendering in the style of the paper's Fig. 1: approximate
    layers and their range nodes highlighted, the output node marked.
    Feed to [dot -Tsvg] outside the container. *)
