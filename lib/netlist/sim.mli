(** Netlist simulation.

    Two entry points: single-pattern Boolean evaluation, and one
    bit-parallel sweep that yields a circuit's whole truth table and the
    one-count of every node in a single pass.  The sweep compiles the
    circuit once into flat int arrays (an opcode and two fan-in indices
    per node) and evaluates {!lanes} patterns per native int, so an 8x8
    multiplier's 65 536 patterns cost 2 048 passes over the arrays with
    no boxed word and no closure per gate. *)

val eval : Circuit.t -> bool array -> bool array
(** [eval c ins] evaluates [c] with primary inputs bound (in creation
    order) to [ins] and returns the outputs in registration order.
    Raises [Invalid_argument] if [ins] has the wrong length. *)

val eval_unsigned : Circuit.t -> input_bits:int list -> int -> int
(** [eval_unsigned c ~input_bits x] binds the circuit's inputs from the
    little-endian binary expansion of [x], where [input_bits] gives the
    width of each primary input group in creation order (their sum must
    equal the number of inputs), and reads the outputs back as an
    unsigned little-endian integer. *)

val lanes : int
(** [32]: patterns per native-int word of a sweep.  A 64-bit random
    word feeds two consecutive sweep words, low half first. *)

type sweep = {
  patterns : int;     (** patterns simulated *)
  ones : int array;   (** [ones.(i)]: patterns on which node [i] is 1 *)
  table : int array;
      (** {!exhaustive} only: [table.(p)] is the output bus at pattern
          [p], output [k] (registration order) in bit [k]; empty for
          {!sampled} *)
}

val exhaustive_inputs_limit : int
(** [20]: the widest circuit {!exhaustive} accepts (2{^20} patterns). *)

val exhaustive : ?table:bool -> Circuit.t -> sweep
(** [exhaustive c] simulates all [2^inputs] patterns; pattern [p] binds
    primary input [o] (creation order) to bit [o] of [p].  With
    [~table:false] (default [true]) the pass only counts ones: [table]
    is empty and any number of outputs is accepted.  Raises
    [Invalid_argument] past {!exhaustive_inputs_limit} inputs, or, when
    it writes the table, past {!lanes} outputs. *)

val sampled : Circuit.t -> words:int -> (int -> int -> int) -> sweep
(** [sampled c ~words input] simulates [words * lanes] patterns: lane
    [l] of word [w] binds input [o] to bit [l] of [input w o] (its low
    {!lanes} bits are read).  [table] is empty.  Raises
    [Invalid_argument] unless [words > 0]. *)

val truth_table_2x : Circuit.t -> width_a:int -> width_b:int ->
  (int -> int -> int)
(** [truth_table_2x c ~width_a ~width_b] is {!exhaustive}'s table viewed
    as a function of two unsigned operands of the given widths (in
    creation order: all bits of [a] LSB-first, then all bits of [b]).
    Raises [Invalid_argument] when the widths do not cover the inputs,
    past {!exhaustive_inputs_limit} inputs or {!lanes} outputs, and the
    returned function on an operand out of range. *)
