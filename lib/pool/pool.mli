(** Persistent worker-domain pool with deterministic work splitting.

    The emulator's hot paths (ApproxGEMM rows, Im2Cols patch rows,
    per-image batch shards) are embarrassingly parallel, but spawning
    fresh domains per chunk — the seed's approach — pays domain start-up
    cost on every convolution and caps parallelism at one layer.  A pool
    is created once per process, its workers block on a condition
    variable between jobs, and every [parallel_for]/[map_array] call
    reuses them.

    {b Determinism contract.}  A range [\[lo, hi)] is cut into fixed
    [grain]-sized claims, and up to [min size max_domains] domains race
    for the next claim off an atomic counter, the way a GPU hands each
    tile of a grid to whichever SM is free.  {e Which} domain runs a
    claim varies run to run, but {e what} claim [c] covers never does:
    [\[lo + c*grain, min hi (lo + (c+1)*grain))], executed exactly once.
    A task never observes which domain runs it, so any function whose
    claims touch disjoint state produces bit-identical results for every
    pool size and every [max_domains] — the property the differential
    test suite pins down.  {!map_array} returns its results in index
    order.  Exceptions raised inside tasks are re-raised exactly once on
    the calling domain, and the lowest failing claim wins: claims are
    handed out in ascending order, so every claim below an executed one
    was dispatched and the minimum is well defined — even the error is
    deterministic.

    Nested calls — a task that itself calls into the same pool — run
    their tasks inline on the current domain rather than deadlocking, so
    batch-level sharding can sit above row-level GEMM parallelism.  The
    coordinator role is taken under the pool lock, so two systhreads
    fanning out concurrently never corrupt each other: one wins the
    workers, the loser runs inline.  (Note this makes concurrent calls
    {e safe}, not parallel — and layers above the pool, e.g. the
    {!Ax_nn.Scratch} arenas, are per-domain, so concurrent emulator
    runs from multiple systhreads of one domain are still unsupported;
    serialize at the caller as the serve scheduler does.) *)

type t

val create : ?domains:int -> unit -> t
(** A pool of [domains] workers {e including} the calling domain, so
    [domains - 1] new domains are spawned and [create ~domains:1 ()]
    spawns none (every call runs inline).  Default: {!recommended}.
    Raises [Invalid_argument] unless [1 <= domains <= 64]. *)

val size : t -> int
(** Worker count, including the caller's domain. *)

val shutdown : t -> unit
(** Join all workers.  Idempotent; subsequent job submissions run
    inline on the calling domain. *)

val parallel_for :
  t ->
  ?max_domains:int ->
  ?grain:int ->
  lo:int ->
  hi:int ->
  (lo:int -> hi:int -> unit) ->
  unit
(** [parallel_for t ~lo ~hi body] cuts [\[lo, hi)] into [grain]-sized
    claims and calls [body ~lo ~hi] once per claim, on whichever
    participating domain claims it.  An omitted [grain], or
    [grain <= 0], means auto: about 4 claims per domain.  [max_domains]
    caps the participating-domain count (default: pool size).  Empty
    ranges are a no-op.  The call returns when every claim has
    finished. *)

val map_array : t -> ?max_domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f items] applies [f] to every element in parallel, one
    element per claim, and returns results in index order.  Element
    [i]'s result never depends on which domain ran it, so the output is
    bit-identical for every pool size whenever [f] is deterministic per
    element — the primitive backing per-image batch sharding. *)

val current_slot : t -> int
(** The calling domain's worker slot: worker [i] owns slot [i + 1]; the
    coordinator (or any foreign domain) is slot 0.  Stable for the
    lifetime of the pool — the shard-to-tid mapping trace attribution
    uses. *)

(** {1 Utilization} *)

type stats = {
  parallel_calls : int;  (** calls that fanned out to workers *)
  inline_calls : int;    (** calls run entirely on the calling domain *)
  claims : int;          (** total claims handed out *)
  tasks : int;           (** slot tasks run, one per participating domain *)
  busy_seconds : float;  (** summed task wall-clock across domains *)
  fanout_wall_seconds : float;
      (** coordinator wall-clock spent inside parallel fan-outs *)
  per_domain_busy_seconds : float array;
      (** task wall-clock per slot (index 0 = coordinator) *)
}

val stats : t -> stats

val imbalance : stats -> float
(** [1 - mean/max] over {!stats.per_domain_busy_seconds}: 0 when every
    domain worked equally, approaching 1 when one domain did all the
    work; 0 when nothing ran. *)

val publish : t -> Ax_obs.Metrics.t -> unit
(** Export utilization as gauges: [pool_domains], [pool_parallel_calls],
    [pool_inline_calls], [pool_claims], [pool_tasks],
    [pool_busy_seconds],
    [pool_fanout_wall_seconds], [pool_imbalance], and per slot [i] the
    [pool_busy_fraction_d<i>] / [pool_idle_fraction_d<i>] pair (busy
    seconds over fan-out wall seconds).  Gauges (not counters) so
    repeated publication is idempotent. *)

(** {1 Per-domain tracing} *)

val set_tracer : t -> Ax_obs.Trace.t option -> unit
(** Attach a sink tracer: every subsequent parallel fan-out records one
    [pool.task] span per slot into a private per-slot fork
    ([Trace.fork], [tid] = slot) and merges the forks back into the sink
    in slot order after the join — single writer per domain, so no
    locking on the record path.  Inline (nested or single-domain) calls
    record nothing.  [None] detaches.  Calls made mid-fan-out or from a
    worker are silently ignored. *)

(** {1 The process-wide default pool} *)

val env_var : string
(** ["TFAPPROX_DOMAINS"] — overrides the default pool size. *)

val validate_domains : what:string -> int -> unit
(** Raise [Invalid_argument "<what>: domains must be in 1..64"] unless
    the count is in range.  The single validator every layer that
    accepts a user-supplied domains count routes through
    ({!create}, {!set_default_size}, [Axconv.make_config],
    [Emulator.run ?domains]) so the accepted range cannot drift. *)

val recommended : unit -> int
(** [$TFAPPROX_DOMAINS] when set (clamped to 1..64), otherwise
    [Domain.recommended_domain_count ()]. *)

val default : unit -> t
(** The process-wide pool, created on first use with {!recommended}
    workers. *)

val ensure : domains:int -> t
(** {!default}, grown to at least [domains] workers.  Growing replaces
    the pool (the old workers are joined first); when called from inside
    a pool task the current pool is returned unchanged, since a resize
    mid-job is impossible. *)

val set_default_size : int -> unit
(** Replace the default pool with one of exactly this size (the CLI's
    [--domains] hook).  Raises [Invalid_argument] outside 1..64. *)

val default_size : unit -> int
(** [size (default ())]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** A fresh private pool for the call, shut down on exit (also on
    exception) — the harness the property tests use. *)
