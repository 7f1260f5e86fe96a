(** CGP-style genome over a combinational multiplier netlist.

    A genome is the mutable-representation twin of an append-only
    {!Ax_netlist.Circuit.t}: a flat gene array in topological order
    (every gate gene's fan-ins point strictly below it, so acyclicity
    holds by construction) plus the declared output interface.  Mutation
    edits genes in place; {!to_circuit} replays the genes through the
    circuit smart constructors, which re-apply structural hashing and
    constant folding, and {!to_multiplier} additionally sweeps dead
    logic with {!Ax_netlist.Opt.strip_dead} — the exact round-trip every
    search candidate takes before being tabulated and certified. *)

type op = Buf | Not | And2 | Or2 | Xor2 | Nand2 | Nor2 | Xnor2

type gene =
  | Input of string  (** primary input; never mutated *)
  | Const of bool
  | Gate of { op : op; a : int; b : int }
      (** two-input gene; unary ops ([Buf], [Not]) read only [a] *)

type t = {
  name : string;
  width_a : int;
  width_b : int;
  product_bits : int;
  signed : bool;
  genes : gene array;
  outputs : (string * int) array;  (** label, gene index *)
}

val of_multiplier : Ax_netlist.Multipliers.t -> t
(** Extract the genome of an existing multiplier netlist (gene [i] is
    circuit node [i]). *)

val to_circuit : ?name:string -> t -> Ax_netlist.Circuit.t
(** Replay the genes through the smart constructors.  Simplifications
    the constructors perform (folding a gate whose fan-ins became
    constant, interning a duplicated gate) are intended: they model the
    light cleanup any synthesis flow would apply to a mutant. *)

val to_multiplier : ?name:string -> t -> Ax_netlist.Multipliers.t
(** [to_circuit] followed by {!Ax_netlist.Opt.strip_dead}, wrapped with
    the genome's declared interface widths. *)

val mutate : rng:Ax_tensor.Rng.t -> ?operations:int -> t -> t
(** A fresh genome with [operations] (default 1) random edits, each one
    of: gate substitution (new operator, same fan-ins), fan-in rewire
    (one operand re-pointed to a uniformly chosen earlier gene) or
    constant folding (the gene replaced by a constant driver).  Inputs
    and the output interface are never touched, and rewires only point
    downward, so every mutant still satisfies {!valid}.  The input
    genome is not modified. *)

val valid : t -> bool
(** Structural invariants the search (and the qcheck property tests)
    rely on: gate fan-ins strictly below their gene, output indices in
    range with pairwise-distinct labels, input genes matching
    [width_a + width_b] in count. *)
