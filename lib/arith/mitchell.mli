(** Mitchell's logarithmic multiplier (1962).

    Approximates [a*b] as [antilog2 (log2 a + log2 b)] where the
    logarithm of [x = 2^l * (1 + f)] is linearly interpolated as
    [l + f].  Implemented in fixed point so results are deterministic
    across platforms.  The classic design always under-estimates. *)

val multiply : int -> int -> int
(** [multiply a b] for unsigned operands; [0] when either operand is 0. *)

val log2_fixed : int -> int
(** Fixed-point ([{!fraction_bits}] fractional bits) linear-interpolated
    base-2 logarithm of a positive integer (exposed for tests). *)

val fraction_bits : int

val leading_one_position : int -> int
(** Position of the most significant set bit, [-1] for [0] (the integer
    part of {!log2_fixed}; shared with {!Drum}). *)
