(** Combinational netlist builder.

    A circuit is a DAG of {!Gate.t} nodes appended in topological order:
    every gate may only reference already-created nodes, so node indices
    double as a valid evaluation order.  Signals are node indices wrapped
    in the abstract type {!signal}.

    The builder performs structural hashing: creating the same gate over
    the same fan-in twice yields the same signal, and trivial identities
    (constant folding, [x AND x = x], ...) are simplified on the fly.
    This keeps generated arithmetic circuits close to what a synthesis
    tool would emit and makes the area metrics meaningful. *)

type t
type signal

val create : ?name:string -> unit -> t
(** [create ()] is an empty circuit.  [name] labels Verilog output. *)

val name : t -> string

val input : t -> string -> signal
(** [input c label] appends a fresh primary input. *)

val const : t -> bool -> signal
(** Constant driver (hash-consed: at most one node per polarity). *)

(** The gate constructors below, and {!output}, raise
    [Invalid_argument] on a signal that is not a node of [c] (one taken
    from another, larger circuit), so a mixed-up signal fails where the
    circuit is built, not later in a simulator. *)

val buf_ : t -> signal -> signal
val not_ : t -> signal -> signal
val and_ : t -> signal -> signal -> signal
val or_ : t -> signal -> signal -> signal
val xor_ : t -> signal -> signal -> signal
val nand_ : t -> signal -> signal -> signal
val nor_ : t -> signal -> signal -> signal
val xnor_ : t -> signal -> signal -> signal

val mux : t -> sel:signal -> signal -> signal -> signal
(** [mux c ~sel t e] is [t] when [sel] is high, otherwise [e]; built from
    basic gates. *)

val output : t -> string -> signal -> unit
(** [output c label s] registers [s] as a primary output.  Labels must be
    unique within the circuit. *)

val node_count : t -> int
(** Total nodes, including inputs and constants. *)

val gate_count : t -> int
(** Combinational gates only (buffers excluded). *)

val input_count : t -> int
val output_count : t -> int

val inputs : t -> (string * signal) list
(** Primary inputs in creation order. *)

val outputs : t -> (string * signal) list
(** Primary outputs in registration order. *)

val gate_at : t -> int -> Gate.t
(** [gate_at c i] is node [i]; raises [Invalid_argument] out of range. *)

val index : signal -> int
(** Node index backing a signal (for simulators and printers). *)

val signal_of_index : t -> int -> signal
(** Inverse of {!index}; checks bounds. *)

val iter_gates : t -> (int -> Gate.t -> unit) -> unit
(** Iterate nodes in topological (creation) order. *)

val levelize : t -> int array
(** [levelize c] assigns each node its logic depth: inputs and constants
    are level 0, every gate is 1 + max level of its fan-in. *)
