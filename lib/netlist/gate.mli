(** Gate primitives of the netlist substrate.

    A gate refers to its fan-in signals by node index inside a
    {!Circuit.t}.  Only one- and two-input primitives are provided; wider
    functions are built structurally from these. *)

type t =
  | Input of string  (** primary input with a diagnostic name *)
  | Const of bool    (** constant driver *)
  | Buf of int       (** identity; used to alias signals at outputs *)
  | Not of int
  | And2 of int * int
  | Or2 of int * int
  | Xor2 of int * int
  | Nand2 of int * int
  | Nor2 of int * int
  | Xnor2 of int * int

val fanin : t -> int list
(** [fanin g] lists the node indices [g] reads, in argument order. *)

val is_combinational : t -> bool
(** [is_combinational g] is [false] exactly for [Input] and [Const]
    nodes, which are sources rather than logic. *)

val name : t -> string
(** Short mnemonic used by the Verilog printer and debug dumps. *)

val eval : t -> (int -> bool) -> bool
(** [eval g lookup] computes the Boolean value of [g] given a function
    resolving fan-in indices to values.  [Input] nodes cannot be
    evaluated this way and raise [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit
