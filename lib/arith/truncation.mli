(** Behavioural models of partial-product-pruned array multipliers.

    These match the gate-level generators in {!Ax_netlist.Multipliers}
    bit-for-bit (asserted in the test suite), but evaluate in a handful
    of integer operations instead of a netlist sweep. *)

val pruned : bits:int -> keep:(int -> int -> bool) -> int -> int -> int
(** Sum of the partial products [a_i * b_j * 2^(i+j)] retained by
    [keep i j], taken modulo [2^(2*bits)].  [keep] is called [bits^2]
    times when [~bits ~keep] are applied, never per product: apply them
    once and reuse the resulting function. *)

val truncated : bits:int -> cut:int -> int -> int -> int
(** Drop all partial products of weight below [2^cut]. *)

val broken_array : bits:int -> hbl:int -> vbl:int -> int -> int -> int
(** Keep the partial product [(i, j)] iff [i + j >= vbl && j >= hbl]. *)
