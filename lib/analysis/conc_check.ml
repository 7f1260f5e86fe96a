(* The CONC rule family: bridge Ax_conc findings and Explore outcomes
   into catalogued diagnostics, plus the check units behind
   [tfapprox check --suite concurrency].

   Two kinds of unit.  Discipline/exploration of the REAL code (the
   pool under record mode, the coordinator model) must come back
   clean — any finding is reported at its catalogued severity.
   Seeded-defect self-tests (a deliberately racy counter, a deliberate
   lock-order inversion) must be FLAGGED — the expected finding is
   consumed as proof the detector still sees, and its absence is a
   [conc/blind-detector] error, so the suite fails loudly if the
   checkers ever go blind rather than silently passing everything. *)

module D = Diagnostic
module Conc = Ax_conc.Conc
module Cmutex = Ax_conc.Mutex
module Race = Ax_conc.Race
module Explore = Ax_conc.Explore
module Pool = Ax_pool.Pool

let rule_of_code = function
  | "lock-cycle" -> "conc/lock-cycle"
  | "rank-violation" -> "conc/rank-violation"
  | "relock" -> "conc/relock"
  | "unlock-unheld" -> "conc/unlock-unheld"
  | "bare-section" -> "conc/bare-section"
  | "data-race" -> "conc/data-race"
  | _ -> "conc/explore-violation"

let to_diagnostic (f : Conc.finding) =
  D.make ~rule:(rule_of_code f.code) ~location:(D.Artefact f.subject) f.detail

let to_diagnostics fs = List.map to_diagnostic fs

(* Run [f] in record mode on a clean slate and return the collected
   findings; the previous mode is restored and the slate wiped either
   way, so units cannot leak state into each other. *)
let with_record f =
  let saved = Conc.mode () in
  Conc.reset ();
  Conc.set_mode Conc.Record;
  Fun.protect
    ~finally:(fun () ->
      Conc.set_mode saved;
      Conc.reset ())
    (fun () ->
      f ();
      Conc.collect ())

let blind ~subject detail =
  [ D.make ~rule:"conc/blind-detector" ~location:(D.Artefact subject) detail ]

(* An exploration outcome as diagnostics: a reported violation carries
   the schedule so the failure replays deterministically. *)
let diagnostics_of_outcome ~subject = function
  | Explore.No_violation _ -> []
  | Explore.Violation { schedule; message } ->
    let rule =
      if String.length message >= 8 && String.sub message 0 8 = "deadlock" then
        "conc/explore-deadlock"
      else "conc/explore-violation"
    in
    [
      D.make ~rule ~location:(D.Artefact subject)
        (Printf.sprintf "%s [replay schedule %s]" message
           (Explore.schedule_to_string schedule));
    ]

(* ------------------------------------------------------------------ *)
(* Seeded-defect self-tests                                            *)
(* ------------------------------------------------------------------ *)

(* A counter bumped by two systhreads with no synchronization at all:
   no happens-before edge exists whatever the timing, so the detector
   MUST report a race on every run — there is no flaky interleaving to
   miss. *)
let selftest_race () =
  let findings =
    with_record (fun () ->
        let cell = Race.cell "selftest.counter" in
        let counter = ref 0 in
        let bump () =
          for _ = 1 to 16 do
            Race.write cell;
            incr counter
          done
        in
        let t1 = Thread.create bump () in
        let t2 = Thread.create bump () in
        Thread.join t1;
        Thread.join t2)
  in
  let races, rest =
    List.partition (fun (f : Conc.finding) -> f.code = "data-race") findings
  in
  if races = [] then
    blind ~subject:"selftest.counter"
      "the deliberately racy counter produced no conc/data-race finding"
  else to_diagnostics rest

(* Deliberate A->B then B->A acquisition: the name-graph cycle exists
   regardless of concurrency, so one thread suffices and detection is
   deterministic. *)
let selftest_lock_cycle () =
  let findings =
    with_record (fun () ->
        let a = Cmutex.create ~name:"selftest.A" () in
        let b = Cmutex.create ~name:"selftest.B" () in
        Cmutex.with_lock a (fun () -> Cmutex.with_lock b (fun () -> ()));
        Cmutex.with_lock b (fun () -> Cmutex.with_lock a (fun () -> ())))
  in
  let cycles, rest =
    List.partition (fun (f : Conc.finding) -> f.code = "lock-cycle") findings
  in
  if cycles = [] then
    blind ~subject:"selftest.A"
      "a deliberate A->B / B->A lock-order inversion produced no \
       conc/lock-cycle finding"
  else to_diagnostics rest

(* Negative golden: a consistent A->B order twice over must NOT be
   called a cycle — a false positive here surfaces as the (error-
   severity) spurious finding itself. *)
let selftest_lock_order_clean () =
  to_diagnostics
    (with_record (fun () ->
         let a = Cmutex.create ~name:"selftest.A" () in
         let b = Cmutex.create ~name:"selftest.B" () in
         Cmutex.with_lock a (fun () -> Cmutex.with_lock b (fun () -> ()));
         Cmutex.with_lock a (fun () -> Cmutex.with_lock b (fun () -> ()))))

(* The pre-fix [Pool.run_slots] coordinator acquisition, as an Explore
   model: test [active], then set it, with no lock — two fan-outs can
   both become coordinator.  The tracked variant must surface as a data
   race; the invariant variant (race detection off) must surface as a
   failed two-coordinators check.  Both pin the PR-8 regression. *)
let prefix_coordinator_model ~tracked () =
  let active = Explore.var ~track:tracked ~name:"pool.active" false in
  let coordinators = ref 0 in
  let body () =
    if not (Explore.get active) then begin
      Explore.set active true;
      incr coordinators;
      Explore.check (!coordinators <= 1)
        "two coordinators installed the pool job concurrently";
      Explore.set active false;
      decr coordinators
    end
  in
  [ body; body ]

let selftest_coordinator_race () =
  let invariant = Explore.explore (prefix_coordinator_model ~tracked:false) in
  let race = Explore.explore (prefix_coordinator_model ~tracked:true) in
  let missed = function Explore.Violation _ -> false | _ -> true in
  (if missed invariant then
     blind ~subject:"pool.run_slots"
       "the pre-fix coordinator model (unlocked test-and-set) passed the \
        two-coordinators invariant under every explored schedule"
   else [])
  @
  if missed race then
    blind ~subject:"pool.active"
      "the pre-fix coordinator model produced no data race on the \
       tracked [active] flag"
  else []

(* ------------------------------------------------------------------ *)
(* Real-code units (must be clean)                                     *)
(* ------------------------------------------------------------------ *)

(* The fixed coordinator protocol: test-and-set of [active] under the
   pool mutex.  Exploration must find no schedule with two
   coordinators, no race, no deadlock. *)
let coordinator_fixed () =
  diagnostics_of_outcome ~subject:"pool.run_slots"
    (Explore.explore (fun () ->
         let m = Cmutex.create ~name:"pool.mutex-model" () in
         let active = Explore.var ~track:false ~name:"pool.active" false in
         let coordinators = ref 0 in
         let body () =
           let got =
             Cmutex.with_lock m (fun () ->
                 if not (Explore.get active) then begin
                   Explore.set active true;
                   true
                 end
                 else false)
           in
           if got then begin
             incr coordinators;
             Explore.check (!coordinators <= 1)
               "two coordinators installed the pool job concurrently";
             Explore.yield ();
             decr coordinators;
             Cmutex.with_lock m (fun () -> Explore.set active false)
           end
         in
         [ body; body ]))

(* Record-mode soak of the real pool: auto-grain and fixed-grain
   fan-outs, an ordered map, an exception crossing the join, and a stats
   read, over real worker domains.  The migrated pool must come back
   with zero findings. *)
let pool_discipline () =
  to_diagnostics
    (with_record (fun () ->
         Pool.with_pool ~domains:2 (fun p ->
             Pool.parallel_for p ~lo:0 ~hi:64 (fun ~lo:_ ~hi:_ -> ());
             Pool.parallel_for p ~grain:4 ~lo:0 ~hi:64 (fun ~lo:_ ~hi:_ -> ());
             Pool.map_array p (fun i -> i * i) (Array.init 100 Fun.id)
             |> Array.iteri (fun i sq ->
                    if sq <> i * i then
                      failwith "conc_check: map_array self-check failed");
             (try
                Pool.parallel_for p ~lo:0 ~hi:8 (fun ~lo:_ ~hi:_ ->
                    failwith "boom")
              with Failure _ -> ());
             ignore (Pool.stats p))))

let suite () =
  [
    ("conc.selftest.race", selftest_race ());
    ("conc.selftest.lock-cycle", selftest_lock_cycle ());
    ("conc.selftest.lock-order-clean", selftest_lock_order_clean ());
    ("conc.selftest.coordinator-race", selftest_coordinator_race ());
    ("conc.pool.coordinator-fixed", coordinator_fixed ());
    ("conc.pool.discipline", pool_discipline ());
  ]
