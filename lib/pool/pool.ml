(* Synchronization goes through the Ax_conc checked shims (lock names
   and ranks per the DESIGN §5g hierarchy); with TFAPPROX_CONC unset
   they are passthrough Stdlib operations. *)
module Cmutex = Ax_conc.Mutex
module Ccond = Ax_conc.Condition
module Catomic = Ax_conc.Atomic

let max_domains_limit = 64

type stats = {
  parallel_calls : int;
  inline_calls : int;
  claims : int;
  tasks : int;
  busy_seconds : float;
  fanout_wall_seconds : float;
  per_domain_busy_seconds : float array;
}

type t = {
  size : int;
  mutex : Cmutex.t;
  work_ready : Ccond.t;
  work_done : Ccond.t;
  (* One job at a time: the coordinator installs [job] and bumps
     [generation]; each worker runs the job for its own slot exactly
     once per generation.  The job is a claim loop (see [parallel_for]):
     which slot runs a claim varies, what the claim covers never does. *)
  mutable generation : int;
  mutable job : (int -> unit) option;
  job_cell : Ax_conc.Race.cell;
      (** race-detector annotation on the [job] slot: written by the
          coordinator installing/clearing a job, read by workers *)
  mutable pending : int;
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
  mutable active : bool;  (** coordinator is inside a fan-out *)
  mutable shut_down : bool;
  mutable workers : unit Domain.t array;
  worker_ids : Domain.id array;
  (* Utilization counters, all under [mutex] — they are also bumped by
     concurrent systhread callers taking the inline path. *)
  mutable parallel_calls : int;
  mutable inline_calls : int;
  mutable claims : int;
  mutable tasks : int;
  mutable busy_s : float;
  per_slot_busy : float array;
  mutable fanout_wall_s : float;
  (* Per-domain span attribution: when a sink tracer is attached, each
     fan-out records a pool.task span per slot into that slot's private
     fork (single writer per domain, no locks), and the coordinator
     merges the forks back into [tracer] after the join, in slot
     order — deterministic for a fixed split. *)
  mutable tracer : Ax_obs.Trace.t option;
  mutable forks : Ax_obs.Trace.t array;
}

let size t = t.size

let is_worker t =
  let me = Domain.self () in
  Array.exists (fun id -> id = me) t.worker_ids

(* Worker slot of the calling domain: worker i owns slot i + 1, any
   other domain (the coordinator included) is slot 0. *)
let current_slot t =
  let me = Domain.self () in
  let n = Array.length t.worker_ids in
  let rec find i =
    if i >= n then 0 else if t.worker_ids.(i) = me then i + 1 else find (i + 1)
  in
  find 0

let record_failure t slot e bt =
  match t.failure with
  | Some (s, _, _) when s <= slot -> ()
  | Some _ | None -> t.failure <- Some (slot, e, bt)

let worker_body t slot () =
  let my_gen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let action =
      Cmutex.with_lock t.mutex (fun () ->
          while (not t.shut_down) && t.generation = !my_gen do
            Ccond.wait t.work_ready t.mutex
          done;
          if t.shut_down then `Stop
          else begin
            my_gen := t.generation;
            Ax_conc.Race.read t.job_cell;
            let job = match t.job with Some f -> f | None -> fun _ -> () in
            `Run job
          end)
    in
    match action with
    | `Stop -> continue_ := false
    | `Run job ->
      let start = Unix.gettimeofday () in
      let outcome =
        try
          job slot;
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      let elapsed = Unix.gettimeofday () -. start in
      Cmutex.with_lock t.mutex (fun () ->
          t.busy_s <- t.busy_s +. elapsed;
          t.per_slot_busy.(slot) <- t.per_slot_busy.(slot) +. elapsed;
          (match outcome with
          | Some (e, bt) -> record_failure t slot e bt
          | None -> ());
          t.pending <- t.pending - 1;
          if t.pending = 0 then Ccond.signal t.work_done)
  done

let env_var = "TFAPPROX_DOMAINS"

let clamp_domains d = Int.max 1 (Int.min max_domains_limit d)

(* The one domains-count validator: every API that accepts a user-given
   count ([Pool.create], [Axconv.make_config], [Emulator.run ?domains])
   routes through here, so the accepted range cannot drift between
   layers.  [clamp_domains] stays for internally derived counts (env
   var, [Domain.recommended_domain_count]). *)
let validate_domains ~what d =
  if d < 1 || d > max_domains_limit then
    invalid_arg
      (Printf.sprintf "%s: domains must be in 1..%d" what max_domains_limit)

let recommended () =
  match Sys.getenv_opt env_var with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d -> clamp_domains d
    | None -> clamp_domains (Domain.recommended_domain_count ()))
  | None -> clamp_domains (Domain.recommended_domain_count ())

let create ?domains () =
  let domains =
    match domains with
    | Some d ->
      validate_domains ~what:"Pool.create" d;
      d
    | None -> recommended ()
  in
  let t =
    {
      size = domains;
      mutex = Cmutex.create ~order:20 ~name:"pool.mutex" ();
      work_ready = Ccond.create ~name:"pool.work-ready" ();
      work_done = Ccond.create ~name:"pool.work-done" ();
      generation = 0;
      job = None;
      job_cell = Ax_conc.Race.cell "pool.job";
      pending = 0;
      failure = None;
      active = false;
      shut_down = false;
      workers = [||];
      worker_ids = Array.make (Int.max 0 (domains - 1)) (Domain.self ());
      parallel_calls = 0;
      inline_calls = 0;
      claims = 0;
      tasks = 0;
      busy_s = 0.;
      per_slot_busy = Array.make domains 0.;
      fanout_wall_s = 0.;
      tracer = None;
      forks = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun i ->
        let slot = i + 1 in
        let d = Domain.spawn (worker_body t slot) in
        t.worker_ids.(i) <- Domain.get_id d;
        d);
  t

let shutdown t =
  let first =
    Cmutex.with_lock t.mutex (fun () ->
        let first = not t.shut_down in
        if first then begin
          t.shut_down <- true;
          Ccond.broadcast t.work_ready
        end;
        first)
  in
  if first then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Attach (or detach, with [None]) a sink tracer for per-domain span
   attribution.  Forks are created once per attach and reused across
   fan-outs; a mid-job or on-worker call is a silent no-op — the caller
   (a nested emulator run, say) simply doesn't get pool spans rather
   than corrupting the in-flight fan-out's buffers. *)
let set_tracer t tr =
  if not (t.active || is_worker t) then begin
    t.tracer <- tr;
    t.forks <-
      (match tr with
      | None -> [||]
      | Some sink -> Array.init t.size (fun s -> Ax_obs.Trace.fork sink ~tid:s))
  end

(* Run [task slot] once for each slot in [0 .. slots - 1]: slot 0 on the
   calling domain, the rest on workers.  Falls back to an inline loop
   when the pool cannot fan out (single worker, shut down, or called
   from inside a task of this very pool). *)
let run_slots t ~slots task =
  let inline () =
    Cmutex.with_lock t.mutex (fun () ->
        t.inline_calls <- t.inline_calls + 1;
        t.tasks <- t.tasks + slots);
    for s = 0 to slots - 1 do
      task s
    done
  in
  (* The coordinator role is acquired under [t.mutex]: two systhreads
     fanning out at once would otherwise both observe [active = false]
     and install [t.job] over each other, corrupting both fan-outs.
     The loser of the race simply runs inline, same as a nested call. *)
  let acquired =
    (not (slots <= 1 || t.size = 1 || is_worker t))
    && Cmutex.with_lock t.mutex (fun () ->
           let ok = (not t.active) && not t.shut_down in
           if ok then t.active <- true;
           ok)
  in
  if not acquired then inline ()
  else begin
    (* Only the fan-out path records pool.task spans: each slot writes
       into its own fork, so there is exactly one writer per buffer.
       Inline (nested) calls stay unrecorded — a worker recording into a
       shared sink would race with the other domains. *)
    let task =
      match t.tracer with
      | None -> task
      | Some _ ->
        let forks = t.forks in
        fun s ->
          Ax_obs.Trace.with_span forks.(s) ~name:"pool.task"
            ~attrs:[ ("slot", string_of_int s) ]
            (fun () -> task s)
    in
    Cmutex.with_lock t.mutex (fun () ->
        t.parallel_calls <- t.parallel_calls + 1;
        t.tasks <- t.tasks + slots;
        Ax_conc.Race.write t.job_cell;
        t.job <- Some (fun s -> if s < slots then task s);
        t.generation <- t.generation + 1;
        t.pending <- t.size - 1;
        t.failure <- None;
        Ccond.broadcast t.work_ready);
    let start = Unix.gettimeofday () in
    let own =
      try
        task 0;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    let elapsed = Unix.gettimeofday () -. start in
    let worker_failure =
      Cmutex.with_lock t.mutex (fun () ->
          t.busy_s <- t.busy_s +. elapsed;
          t.per_slot_busy.(0) <- t.per_slot_busy.(0) +. elapsed;
          while t.pending > 0 do
            Ccond.wait t.work_done t.mutex
          done;
          Ax_conc.Race.write t.job_cell;
          t.job <- None;
          let worker_failure = t.failure in
          t.failure <- None;
          worker_failure)
    in
    let wall = Unix.gettimeofday () -. start in
    (* Workers are quiescent again: merge each slot's fork into the sink
       in slot order, so the merged stream is deterministic for a fixed
       split.  Merge even on failure — a trace of the failing fan-out is
       exactly what a debugging session wants.  The coordinator role is
       released only after the merge — a new coordinator writing fresh
       spans into the forks would race it. *)
    (match t.tracer with
    | Some sink ->
      Array.iter
        (fun f ->
          Ax_obs.Trace.merge ~into:sink f;
          Ax_obs.Trace.clear f)
        t.forks
    | None -> ());
    Cmutex.with_lock t.mutex (fun () ->
        t.fanout_wall_s <- t.fanout_wall_s +. wall;
        t.active <- false);
    (* Slot 0 is the lowest index, so the caller's own exception wins;
       otherwise the lowest failing worker slot.  Exactly one re-raise. *)
    match (own, worker_failure) with
    | Some (e, bt), _ -> Printexc.raise_with_backtrace e bt
    | None, Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end

let split_count t ?max_domains n =
  let cap =
    match max_domains with
    | Some m -> Int.max 1 (Int.min m t.size)
    | None -> t.size
  in
  Int.max 1 (Int.min cap n)

(* A grain of 0 (or below) means "auto": a few claims per slot, so a
   skewed tail can rebalance without paying a claim per index. *)
let resolve_grain ~n ~slots grain =
  if grain >= 1 then grain else Int.max 1 (n / (slots * 4))

(* Range claiming: the range [lo, hi) is cut into fixed [grain]-sized
   claims and every participating domain grabs the next unclaimed one
   off an atomic counter until none are left.  WHICH domain runs a
   claim varies run to run; WHAT each claim covers never does — claim
   [c] is always [lo + c*grain, min hi (lo + (c+1)*grain)).  Any task
   whose claims touch disjoint state is therefore bit-identical for
   every pool size and [max_domains].

   Exceptions: a failing claim is recorded (lowest claim index wins) and
   the counter is short-circuited so no further claims are handed out;
   in-flight claims finish.  Claim hand-out is in ascending order, so
   every claim below a failing one has already been dispatched — the
   minimum over executed failing claims equals the global minimum
   failing claim, and the re-raise is deterministic.  Exactly one
   re-raise, after the join. *)
let run_claims t ~slots ~lo ~hi ~grain task =
  let n = hi - lo in
  let claims = (n + grain - 1) / grain in
  let slots = Int.min slots claims in
  Cmutex.with_lock t.mutex (fun () -> t.claims <- t.claims + claims);
  let fail_mutex = Cmutex.create ~order:30 ~name:"pool.claim-failure" () in
  let failure = ref None in
  let next = Catomic.make ~name:"pool.next-claim" 0 in
  let claim_loop _slot =
    let continue_ = ref true in
    while !continue_ do
      let c = Catomic.fetch_and_add next 1 in
      if c >= claims then continue_ := false
      else begin
        let clo = lo + (c * grain) in
        let chi = Int.min hi (clo + grain) in
        try task ~lo:clo ~hi:chi
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Cmutex.with_lock fail_mutex (fun () ->
              match !failure with
              | Some (c0, _, _) when c0 <= c -> ()
              | Some _ | None -> failure := Some (c, e, bt));
          (* Stop handing out further claims; in-flight ones finish. *)
          let rec drain () =
            let cur = Catomic.get next in
            if cur < claims && not (Catomic.compare_and_set next cur claims)
            then drain ()
          in
          drain ()
      end
    done
  in
  run_slots t ~slots claim_loop;
  match !failure with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let parallel_for t ?max_domains ?(grain = 0) ~lo ~hi body =
  let n = hi - lo in
  if n > 0 then begin
    let slots = split_count t ?max_domains n in
    run_claims t ~slots ~lo ~hi ~grain:(resolve_grain ~n ~slots grain) body
  end

let map_array t ?max_domains f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t ?max_domains ~grain:1 ~lo:0 ~hi:n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          results.(i) <- Some (f items.(i))
        done);
    Array.map
      (function Some v -> v | None -> assert false (* every index filled *))
      results
  end

let stats t =
  Cmutex.with_lock t.mutex (fun () ->
      {
        parallel_calls = t.parallel_calls;
        inline_calls = t.inline_calls;
        claims = t.claims;
        tasks = t.tasks;
        busy_seconds = t.busy_s;
        fanout_wall_seconds = t.fanout_wall_s;
        per_domain_busy_seconds = Array.copy t.per_slot_busy;
      })

(* Busy fraction of a domain: its task seconds over the wall time the
   pool spent inside fan-outs.  The imbalance gauge is 1 - mean/max
   busy — 0 when every domain worked equally, approaching 1 when one
   domain did all the work. *)
let imbalance s =
  let busy = s.per_domain_busy_seconds in
  if Array.length busy = 0 then 0.
  else begin
    let maxv = Array.fold_left Float.max 0. busy in
    if maxv <= 0. then 0.
    else
      let mean =
        Array.fold_left ( +. ) 0. busy /. float_of_int (Array.length busy)
      in
      1. -. (mean /. maxv)
  end

let publish t metrics =
  let s = stats t in
  Ax_obs.Metrics.set_gauge metrics "pool_domains" (float_of_int t.size);
  Ax_obs.Metrics.set_gauge metrics "pool_parallel_calls"
    (float_of_int s.parallel_calls);
  Ax_obs.Metrics.set_gauge metrics "pool_inline_calls"
    (float_of_int s.inline_calls);
  Ax_obs.Metrics.set_gauge metrics "pool_claims" (float_of_int s.claims);
  Ax_obs.Metrics.set_gauge metrics "pool_tasks" (float_of_int s.tasks);
  Ax_obs.Metrics.set_gauge metrics "pool_busy_seconds" s.busy_seconds;
  Ax_obs.Metrics.set_gauge metrics "pool_fanout_wall_seconds"
    s.fanout_wall_seconds;
  Ax_obs.Metrics.set_gauge metrics "pool_imbalance" (imbalance s);
  let wall = s.fanout_wall_seconds in
  Array.iteri
    (fun i busy ->
      let frac = if wall > 0. then Float.min 1. (busy /. wall) else 0. in
      Ax_obs.Metrics.set_gauge metrics
        (Printf.sprintf "pool_busy_fraction_d%d" i)
        frac;
      Ax_obs.Metrics.set_gauge metrics
        (Printf.sprintf "pool_idle_fraction_d%d" i)
        (1. -. frac))
    s.per_domain_busy_seconds

(* ------------------------------------------------------------------ *)
(* Default process-wide pool                                           *)
(* ------------------------------------------------------------------ *)

(* Rank 10: the registry lock is held while creating/shutting down a
   pool, whose own mutex is rank 20 — registry first, always. *)
let default_mutex = Cmutex.create ~order:10 ~name:"pool.registry" ()
let default_pool : t option ref = ref None
let with_default_lock f = Cmutex.with_lock default_mutex f

let default () =
  with_default_lock (fun () ->
      match !default_pool with
      | Some p -> p
      | None ->
        let p = create ~domains:(recommended ()) () in
        default_pool := Some p;
        p)

let ensure ~domains =
  let domains = clamp_domains domains in
  with_default_lock (fun () ->
      match !default_pool with
      | Some p when p.size >= domains -> p
      | Some p when p.active || is_worker p ->
        (* Mid-job: growing would mean joining workers that are running
           this very job.  The caller's fan-out will run inline. *)
        p
      | (Some _ | None) as existing ->
        Option.iter shutdown existing;
        let p = create ~domains () in
        default_pool := Some p;
        p)

let set_default_size domains =
  validate_domains ~what:"Pool.set_default_size" domains;
  with_default_lock (fun () ->
      (match !default_pool with Some p -> shutdown p | None -> ());
      default_pool := Some (create ~domains ()))

let default_size () = size (default ())

let with_pool ~domains f =
  let p = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
