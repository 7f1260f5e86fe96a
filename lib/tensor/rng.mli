(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic choice in the repository — synthetic weights,
    synthetic datasets, the multiplier search, Monte-Carlo signal
    probabilities, fault sites — flows through this module with an
    explicit seed, so all experiments are bit-reproducible.  Everything
    is exact [int64] arithmetic, so streams are identical across
    platforms and word sizes. *)

type t

val golden : int64
(** The SplitMix64 increment, [0x9E3779B97F4A7C15]. *)

val mix : int64 -> int64
(** The SplitMix64 finaliser: the draw after a state is [mix state]. *)

val create : int -> t
(** [create seed] builds an independent generator. *)

val of_state : int64 -> t
(** A generator whose state is exactly the argument: the first draw is
    [mix (state + golden)]. *)

val copy : t -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound] must be positive. *)

val bool : t -> bool
(** The low bit of the next draw. *)

val float : t -> float
(** Uniform in [0, 1). *)

val gaussian : t -> float
(** Standard normal via Box-Muller. *)

val split : t -> t
(** Derive a statistically independent child generator; the parent
    advances by one draw. *)
