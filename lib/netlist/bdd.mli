(** Reduced ordered binary decision diagrams.

    The formal-verification companion to the netlist substrate: checking
    that a generated (or hand-optimised) approximate multiplier is
    exactly the function it claims to be, without relying on the same
    simulator that produced it.  Variables are ordered by primary-input
    creation index.

    The manager holds everything in flat int arrays, CUDD-style: three
    node arrays (variable, low child, high child), an open-addressed
    unique table that is at most half full and holds every node exactly
    once (so equal functions are equal node ids), and a direct-mapped
    computed table for [apply] with a quarter of the unique table's
    slots.  The computed table is lossy: a colliding entry overwrites the
    older one, which costs a recomputation and never changes a result,
    since canonicity comes from the unique table alone.  All tables start
    at 1024 nodes and double with the node count, so a manager's memory
    follows the BDD it builds; [apply] allocates nothing on the minor
    heap.

    Nodes are plain integers, so BDDs from different managers must not
    be mixed (checked where cheap, undefined otherwise).  A manager
    holds at most 2{^26} nodes over {!max_vars} variables; growing past
    either raises [Invalid_argument]. *)

type manager
type node = int

val manager : unit -> manager

val zero : node
val one : node

val max_vars : int
(** [1024]: variables are indexed [0 .. max_vars - 1]. *)

val var : manager -> int -> node
(** [var m i] is the function of primary-input variable [i].  Raises
    [Invalid_argument] outside [0, max_vars). *)

val not_ : manager -> node -> node
val and_ : manager -> node -> node -> node
val or_ : manager -> node -> node -> node
val xor_ : manager -> node -> node -> node

val node_count : manager -> int
(** Live unique nodes (diagnostic). *)

val of_table : manager -> vars:int -> (int -> bool) -> node
(** [of_table m ~vars f] is the canonical BDD of the truth table [f]
    over [2^vars] indices, where variable [v] is bit [v] of the index
    (variable 0 nearest the root).  [f] is called once per index, in
    increasing order.  Built bottom-up by Shannon expansion, one node
    lookup per table pair and no apply, so it is the same node as any
    other construction of that function in [m].  Raises
    [Invalid_argument] when [2^vars] entries do not fit an array. *)

val of_circuit : manager -> Circuit.t -> (string * node) list
(** One BDD per primary output, labelled; variable [i] is the [i]-th
    primary input in creation order. *)

val equivalent : Circuit.t -> Circuit.t -> bool
(** [equivalent a b] — same number of primary inputs (matched by
    creation order), outputs matched by label; true iff every matched
    output computes the same Boolean function.  Raises
    [Invalid_argument] when inputs or output label sets differ. *)

val satisfy_count : manager -> vars:int -> node -> float
(** Number of satisfying assignments over [vars] variables (float to
    allow wide supports). *)

val probability_one : manager -> vars:int -> node -> float
(** [satisfy_count / 2^vars]: the exact signal probability under
    independent uniform inputs — the reference the approximate
    propagation in {!Power.signal_probabilities} is tested against. *)
