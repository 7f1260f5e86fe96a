(* The worker-pool determinism contract, fuzzed and pinned:

   - [Ax_pool.Pool] primitives: exact range coverage for any pool size
     and [max_domains] (including empty ranges and ranges smaller than
     the pool), [map_array] results in index order, exceptions re-raised
     exactly once with the pool still usable afterwards;
   - bit-identical results across domain counts for [Axconv.conv] and
     for the per-image sharded [Emulator.run]/[Emulator.accuracy],
     including the merged LUT/MAC counters;
   - per-chunk metric accounting: a 3-chunk batch reports exactly the
     summed counters and chunk-timing observations, whatever the row
     split;
   - range claiming, the pool's one schedule: exactly-once coverage,
     grain alignment, claim ranges equal to the sequential reference,
     deterministic exceptions and claim stats under adversarially skewed
     chunk costs.

   The CI matrix exports TFAPPROX_DOMAINS=4; the suite folds that value
   into the domain counts under test. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Axconv = Ax_nn.Axconv
module Profile = Ax_nn.Profile
module Range = Ax_quant.Range
module Registry = Ax_arith.Registry
module Metrics = Ax_obs.Metrics
module Pool = Ax_pool.Pool
module Emulator = Tfapprox.Emulator
module Resnet = Ax_models.Resnet
module Cifar = Ax_data.Cifar

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Domain counts exercised everywhere below; TFAPPROX_DOMAINS (the CI
   matrix leg) joins the list so the suite really runs at that width. *)
let domain_counts =
  let base = [ 1; 2; 3; 8 ] in
  let env =
    match Sys.getenv_opt Pool.env_var with
    | Some s when String.trim s <> "" -> [ Pool.recommended () ]
    | Some _ | None -> []
  in
  List.sort_uniq compare (base @ env)

(* --- pool primitives --- *)

let spin () =
  let acc = ref 0 in
  for i = 1 to 100_000 do
    acc := !acc + i
  done;
  ignore !acc

let test_create_validation () =
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "domains=%d rejected" d)
        (Invalid_argument "Pool.create: domains must be in 1..64")
        (fun () -> ignore (Pool.create ~domains:d ())))
    [ 0; -1; 65 ]

let test_parallel_for_covers_range () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          List.iter
            (fun (lo, hi) ->
              let n = max 0 (hi - lo) in
              let hits = Array.make (max n 1) 0 in
              Pool.parallel_for p ~lo ~hi (fun ~lo:slo ~hi:shi ->
                  for i = slo to shi - 1 do
                    (* Sub-ranges are disjoint, so no two domains touch
                       the same cell. *)
                    hits.(i - lo) <- hits.(i - lo) + 1
                  done);
              Array.iteri
                (fun i c ->
                  if i < n then
                    check_int
                      (Printf.sprintf "domains=%d [%d,%d) index %d" domains
                         lo hi i)
                      1 c)
                hits)
            [ (0, 0); (5, 5); (3, 4); (0, 2); (0, 7); (2, 100); (-3, 3) ]))
    domain_counts

let test_rows_fewer_than_workers () =
  Pool.with_pool ~domains:8 (fun p ->
      let hits = Array.make 3 0 in
      Pool.parallel_for p ~lo:0 ~hi:3 (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check (array int)) "3 rows on 8 workers" [| 1; 1; 1 |] hits)

(* The body runs once per claim, so the cap shows as the set of slots
   that ran claims, not as a call count. *)
let test_max_domains_caps_split () =
  Pool.with_pool ~domains:4 (fun p ->
      let ran = Array.init 4 (fun _ -> Atomic.make false) in
      Pool.parallel_for p ~max_domains:2 ~grain:1 ~lo:0 ~hi:100
        (fun ~lo:_ ~hi:_ ->
          Atomic.set ran.(Pool.current_slot p) true;
          spin ());
      let slots =
        Array.fold_left (fun n r -> n + Bool.to_int (Atomic.get r)) 0 ran
      in
      check_bool
        (Printf.sprintf "at most 2 slots ran claims (%d)" slots)
        true
        (slots >= 1 && slots <= 2))

let test_map_array_preserves_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let items = Array.init 23 (fun i -> i) in
          let out = Pool.map_array p (fun i -> (i * i) + 1) items in
          Alcotest.(check (array int))
            (Printf.sprintf "domains=%d" domains)
            (Array.map (fun i -> (i * i) + 1) items)
            out;
          Alcotest.(check (array int)) "empty" [||] (Pool.map_array p Fun.id [||])))
    domain_counts

exception Boom of int

let test_worker_exception_reraised_once () =
  Pool.with_pool ~domains:4 (fun p ->
      let raised = ref 0 in
      (try
         Pool.parallel_for p ~lo:0 ~hi:40 (fun ~lo ~hi:_ ->
             if lo >= 10 then raise (Boom lo))
       with Boom _ -> incr raised);
      check_int "re-raised exactly once" 1 !raised;
      (* The lowest failing claim wins, so the payload is deterministic
         across pool sizes and timings. *)
      (try
         Pool.parallel_for p ~lo:0 ~hi:40 (fun ~lo ~hi:_ -> raise (Boom lo))
       with Boom lo -> check_int "lowest claim wins" 0 lo);
      (* The pool survives the failure. *)
      let sum =
        Array.fold_left ( + ) 0
          (Pool.map_array p Fun.id (Array.init 10 Fun.id))
      in
      check_int "pool reusable after exception" 45 sum)

let test_nested_calls_run_inline () =
  Pool.with_pool ~domains:4 (fun p ->
      let hits = Array.make 64 0 in
      Pool.parallel_for p ~lo:0 ~hi:8 (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            (* A task calling back into its own pool must not deadlock:
               the nested call runs inline on the current domain. *)
            Pool.parallel_for p ~lo:(i * 8) ~hi:((i + 1) * 8)
              (fun ~lo:jlo ~hi:jhi ->
                for j = jlo to jhi - 1 do
                  hits.(j) <- hits.(j) + 1
                done)
          done);
      Alcotest.(check (array int)) "inner ranges all covered"
        (Array.make 64 1) hits)

let test_shutdown_idempotent_and_inline () =
  let p = Pool.create ~domains:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  let hits = Array.make 5 0 in
  Pool.parallel_for p ~lo:0 ~hi:5 (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        hits.(i) <- hits.(i) + 1
      done);
  Alcotest.(check (array int)) "runs inline after shutdown"
    (Array.make 5 1) hits

(* Two systhreads fanning out at once must never corrupt each other:
   the coordinator role is acquired under the pool lock, so one wins
   the workers and the loser runs inline.  Pure tasks make a clobbered
   [job] surface as a wrong element, not a heisenbug. *)
let test_concurrent_coordinators () =
  Pool.with_pool ~domains:4 (fun p ->
      let errors = Atomic.make 0 in
      let worker seed () =
        for round = 1 to 50 do
          let n = 32 + seed in
          let out =
            Pool.map_array p (fun i -> (i * seed) + round) (Array.init n Fun.id)
          in
          if Array.length out <> n then Atomic.incr errors
          else
            Array.iteri
              (fun i v -> if v <> (i * seed) + round then Atomic.incr errors)
              out
        done
      in
      let ts = List.init 4 (fun i -> Thread.create (worker (i + 1)) ()) in
      List.iter Thread.join ts;
      Alcotest.(check int) "no corrupted fan-outs" 0 (Atomic.get errors))

let test_stats_and_publish () =
  Pool.with_pool ~domains:2 (fun p ->
      Pool.parallel_for p ~lo:0 ~hi:100 (fun ~lo:_ ~hi:_ -> ());
      Pool.parallel_for p ~lo:0 ~hi:0 (fun ~lo:_ ~hi:_ -> ());
      Pool.parallel_for p ~lo:0 ~hi:1 (fun ~lo:_ ~hi:_ -> ());
      let s = Pool.stats p in
      check_bool "a parallel call" true (s.Pool.parallel_calls >= 1);
      check_bool "an inline call" true (s.Pool.inline_calls >= 1);
      check_bool "tasks counted" true (s.Pool.tasks >= 2);
      check_bool "busy time non-negative" true (s.Pool.busy_seconds >= 0.);
      let m = Metrics.create () in
      Pool.publish p m;
      let snap = Metrics.snapshot m in
      Alcotest.(check (option (float 1e-9)))
        "pool_domains gauge" (Some 2.)
        (Metrics.find_gauge snap "pool_domains");
      check_bool "pool_tasks gauge" true
        (Metrics.find_gauge snap "pool_tasks" <> None))

let test_per_domain_stats_and_imbalance () =
  Pool.with_pool ~domains:3 (fun p ->
      Pool.parallel_for p ~lo:0 ~hi:300 (fun ~lo ~hi ->
          for _ = lo to hi - 1 do
            spin ()
          done);
      let s = Pool.stats p in
      check_int "one busy cell per slot" 3
        (Array.length s.Pool.per_domain_busy_seconds);
      check_bool "fan-out wall clock measured" true
        (s.Pool.fanout_wall_seconds > 0.);
      check_bool "per-slot busy sums to the total" true
        (abs_float
           (Array.fold_left ( +. ) 0. s.Pool.per_domain_busy_seconds
           -. s.Pool.busy_seconds)
        < 1e-9);
      let imb = Pool.imbalance s in
      check_bool
        (Printf.sprintf "imbalance %.3f in [0,1)" imb)
        true
        (imb >= 0. && imb < 1.);
      check_bool "no work means no imbalance" true
        (Pool.imbalance
           { s with Pool.per_domain_busy_seconds = [| 0.; 0.; 0. |] }
        = 0.);
      let m = Metrics.create () in
      Pool.publish p m;
      let snap = Metrics.snapshot m in
      check_bool "imbalance gauge" true
        (Metrics.find_gauge snap "pool_imbalance" <> None);
      check_bool "fan-out wall gauge" true
        (match Metrics.find_gauge snap "pool_fanout_wall_seconds" with
        | Some v -> v > 0.
        | None -> false);
      List.iter
        (fun slot ->
          let busy =
            Metrics.find_gauge snap
              (Printf.sprintf "pool_busy_fraction_d%d" slot)
          and idle =
            Metrics.find_gauge snap
              (Printf.sprintf "pool_idle_fraction_d%d" slot)
          in
          match (busy, idle) with
          | Some b, Some i ->
            check_bool
              (Printf.sprintf "slot %d fractions partition (%.3f+%.3f)" slot
                 b i)
              true
              (b >= 0. && i >= 0. && abs_float (b +. i -. 1.) < 1e-9)
          | _ -> Alcotest.failf "slot %d fraction gauges missing" slot)
        [ 0; 1; 2 ])

let test_pool_tracer_attribution () =
  Pool.with_pool ~domains:2 (fun p ->
      let sink = Ax_obs.Trace.create () in
      Pool.set_tracer p (Some sink);
      Pool.parallel_for p ~lo:0 ~hi:20 (fun ~lo ~hi ->
          for _ = lo to hi - 1 do
            spin ()
          done);
      let tasks =
        List.filter
          (fun (s : Ax_obs.Trace.span) -> s.Ax_obs.Trace.name = "pool.task")
          (Ax_obs.Trace.spans sink)
      in
      check_bool "one pool.task span per slot" true (List.length tasks = 2);
      let tids =
        List.sort_uniq compare
          (List.map (fun (s : Ax_obs.Trace.span) -> s.Ax_obs.Trace.tid) tasks)
      in
      Alcotest.(check (list int)) "coordinator and worker rows" [ 0; 1 ] tids;
      (* The slot attribute matches the tid row. *)
      List.iter
        (fun (s : Ax_obs.Trace.span) ->
          check_bool "slot attr = tid" true
            (List.assoc_opt "slot" s.Ax_obs.Trace.attrs
            = Some (string_of_int s.Ax_obs.Trace.tid)))
        tasks;
      (* Inline calls record nothing: a nested fan-out runs inline. *)
      let before = Ax_obs.Trace.span_count sink in
      Pool.parallel_for p ~lo:0 ~hi:4 (fun ~lo:_ ~hi:_ ->
          Pool.parallel_for p ~lo:0 ~hi:4 (fun ~lo:_ ~hi:_ -> ()));
      let after = Ax_obs.Trace.span_count sink in
      check_bool "nested inline calls add no inner spans" true
        (after - before <= 2);
      (* Detaching stops recording. *)
      Pool.set_tracer p None;
      let detached = Ax_obs.Trace.span_count sink in
      Pool.parallel_for p ~lo:0 ~hi:8 (fun ~lo:_ ~hi:_ -> ());
      check_int "detached sink untouched" detached
        (Ax_obs.Trace.span_count sink))

(* The acceptance bar for the whole instrumentation stack: with tracing
   and profiling on, outputs stay bit-identical across domain counts and
   the merged trace is deterministic in the span names it contains.
   Which slot (tid row) a shard lands on is schedule-dependent under
   dynamic claiming — the one trace property work stealing gives up —
   so tids are only checked to be valid slots. *)
let traced_sharded_run ~domains =
  let graph =
    Emulator.approximate_model ~multiplier:"mul8u_trunc8" ~domains
      (Resnet.build ~depth:8 ())
  in
  let data = (Cifar.generate ~n:3 ()).Cifar.images in
  let tracer = Ax_obs.Trace.create () in
  let profile = Profile.create ~trace:tracer () in
  let out =
    Emulator.run ~profile ~domains ~backend:Emulator.Cpu_gemm graph data
  in
  let spans = Ax_obs.Trace.spans tracer in
  let names =
    List.sort compare
      (List.map (fun (s : Ax_obs.Trace.span) -> s.Ax_obs.Trace.name) spans)
  in
  let tids =
    List.sort_uniq compare
      (List.map (fun (s : Ax_obs.Trace.span) -> s.Ax_obs.Trace.tid) spans)
  in
  (out, names, tids)

let test_traced_sharded_deterministic () =
  let reference, _, _ = traced_sharded_run ~domains:1 in
  List.iter
    (fun domains ->
      let out, names, tids = traced_sharded_run ~domains in
      check_bool
        (Printf.sprintf "domains=%d traced output bit-identical" domains)
        true
        (Ax_tensor.Tensor.max_abs_diff reference out = 0.);
      let _, names', _ = traced_sharded_run ~domains in
      check_bool
        (Printf.sprintf "domains=%d trace names deterministic" domains)
        true (names = names');
      check_bool
        (Printf.sprintf "domains=%d tids are valid slots" domains)
        true
        (tids <> [] && List.for_all (fun t -> t >= 0 && t < domains) tids))
    (List.filter (fun d -> d <= 4) domain_counts)

(* --- range claiming --- *)

(* Exactly-once coverage under claiming: every index is visited once,
   whatever the grain (0 = auto, the default), pool size or
   claim/domain interleaving. *)
let prop_dynamic_coverage =
  QCheck.Test.make ~count:60
    ~name:"dynamic parallel_for covers any range exactly once"
    QCheck.(
      quad (int_range 1 8) (int_range (-20) 20) (int_range 0 50)
        (int_range 0 7))
    (fun (domains, lo, len, grain) ->
      Pool.with_pool ~domains (fun p ->
          let hi = lo + len in
          let hits = Array.init (max len 1) (fun _ -> Atomic.make 0) in
          Pool.parallel_for p ~grain ~lo ~hi (fun ~lo:slo ~hi:shi ->
              for i = slo to shi - 1 do
                Atomic.incr hits.(i - lo)
              done);
          len = 0
          || Array.for_all
               (fun c -> Atomic.get c = 1)
               (Array.init len (fun i -> hits.(i)))))

(* Claimed sub-ranges never straddle a grain boundary, and every claim
   is a sub-range of [lo, hi): the fixed claim->range map the
   determinism argument rests on. *)
let prop_dynamic_grain_alignment =
  QCheck.Test.make ~count:60 ~name:"dynamic claims are grain-aligned"
    QCheck.(triple (int_range 1 6) (int_range 1 40) (int_range 1 9))
    (fun (domains, len, grain) ->
      Pool.with_pool ~domains (fun p ->
          let ok = Atomic.make true in
          Pool.parallel_for p ~grain ~lo:3 ~hi:(3 + len) (fun ~lo ~hi ->
              if
                (lo - 3) mod grain <> 0
                || hi - lo > grain
                || lo < 3
                || hi > 3 + len
              then Atomic.set ok false);
          Atomic.get ok))

(* Claim path = sequential reference: each claim records its range in
   its own cell, and the cells read back in claim order must be exactly
   the sequential cut [c*g, min n ((c+1)*g)) of the range — ascending,
   contiguous, every index once, one body call per claim. *)
let test_claim_ranges_match_reference () =
  let n = 37 in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          List.iter
            (fun grain ->
              let tag = Printf.sprintf "domains=%d grain=%d" domains grain in
              let before = (Pool.stats p).Pool.claims in
              let calls = Atomic.make 0 in
              let his = Array.make n (-1) in
              Pool.parallel_for p ~grain ~lo:0 ~hi:n (fun ~lo ~hi ->
                  Atomic.incr calls;
                  his.(lo) <- hi);
              let claims = (Pool.stats p).Pool.claims - before in
              check_int (tag ^ " one body call per claim") claims
                (Atomic.get calls);
              (* Claim 0 starts at 0 and its length is the resolved grain. *)
              let g = his.(0) in
              if grain > 0 then
                check_int (tag ^ " resolved grain") (Int.min grain n) g;
              let by_claim =
                List.filter_map
                  (fun lo -> if his.(lo) < 0 then None else Some (lo, his.(lo)))
                  (List.init n Fun.id)
              in
              Alcotest.(check (list (pair int int)))
                (tag ^ " claims = sequential cut")
                (List.init claims (fun c -> (c * g, Int.min n ((c + 1) * g))))
                by_claim)
            [ 0; 1; 2; 5; 100 ]))
    [ 1; 2; 4 ]

(* Adversarially skewed chunk costs: index i spins i*i times, so the
   last claims carry almost all the work while the rest rebalance.
   Whatever the timing, the claimed sum equals the serial sum. *)
let test_dynamic_skewed_costs () =
  let n = 64 in
  let serial = ref 0 in
  for i = 0 to n - 1 do
    serial := !serial + (i * i)
  done;
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          List.iter
            (fun grain ->
              let total = Atomic.make 0 in
              Pool.parallel_for p ~grain ~lo:0 ~hi:n (fun ~lo ~hi ->
                  let s = ref 0 in
                  for i = lo to hi - 1 do
                    for _ = 1 to i * i do
                      ignore (Sys.opaque_identity i)
                    done;
                    s := !s + (i * i)
                  done;
                  ignore (Atomic.fetch_and_add total !s));
              check_int
                (Printf.sprintf "domains=%d grain=%d skewed" domains grain)
                !serial (Atomic.get total))
            [ 0; 1; 3; 16 ]))
    [ 1; 2; 4 ]

let test_dynamic_exception_deterministic () =
  Pool.with_pool ~domains:4 (fun p ->
      (* Unconditional failure: claim 0 always executes, so the lowest
         failing claim — and with it the payload — is pinned. *)
      let raised = ref 0 in
      (try
         Pool.parallel_for p ~grain:3 ~lo:0 ~hi:40 (fun ~lo ~hi:_ ->
             raise (Boom lo))
       with Boom lo ->
         incr raised;
         check_int "lowest claim wins" 0 lo);
      check_int "re-raised exactly once" 1 !raised;
      (* Conditional failure: claims are handed out in ascending order,
         so the first claim whose range crosses the threshold is always
         dispatched before any later one — Boom 12 is deterministic. *)
      (try
         Pool.parallel_for p ~grain:3 ~lo:0 ~hi:40 (fun ~lo ~hi:_ ->
             if lo >= 10 then raise (Boom lo))
       with Boom lo -> check_int "lowest failing claim wins" 12 lo);
      (* The pool survives and later calls still cover fully. *)
      let hits = Array.init 20 (fun _ -> Atomic.make 0) in
      Pool.parallel_for p ~lo:0 ~hi:20 (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            Atomic.incr hits.(i)
          done);
      check_bool "pool reusable after failure" true
        (Array.for_all (fun c -> Atomic.get c = 1) hits))

(* [map_array] claims one element at a time: results come back in index
   order even when early elements are the slow ones, the claim count is
   the item count, and the lowest failing index is re-raised once. *)
let test_dynamic_map_array_order () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun p ->
          let n = 23 in
          let items = Array.init n Fun.id in
          let before = (Pool.stats p).Pool.claims in
          let out =
            Pool.map_array p
              (fun i ->
                for _ = 1 to (n - i) * (n - i) * 100 do
                  ignore (Sys.opaque_identity i)
                done;
                (i * i) + 1)
              items
          in
          let tag = Printf.sprintf "domains=%d" domains in
          Alcotest.(check (array int))
            (tag ^ " index order")
            (Array.map (fun i -> (i * i) + 1) items)
            out;
          check_int (tag ^ " one claim per item") n
            ((Pool.stats p).Pool.claims - before);
          let raised = ref 0 in
          (try
             ignore
               (Pool.map_array p
                  (fun i -> if i >= 5 then raise (Boom i) else i)
                  items)
           with Boom i ->
             incr raised;
             check_int (tag ^ " lowest failing index") 5 i);
          check_int (tag ^ " re-raised once") 1 !raised))
    [ 1; 2; 4 ]

let test_dynamic_stats () =
  Pool.with_pool ~domains:2 (fun p ->
      let before = Pool.stats p in
      Pool.parallel_for p ~grain:5 ~lo:0 ~hi:40 (fun ~lo:_ ~hi:_ -> ());
      let s = Pool.stats p in
      check_int "ceil(40/5) claims" 8 (s.Pool.claims - before.Pool.claims);
      let m = Metrics.create () in
      Pool.publish p m;
      let snap = Metrics.snapshot m in
      check_bool "pool_claims gauge" true
        (Metrics.find_gauge snap "pool_claims" <> None))

(* --- bit-identical convolution across domain counts --- *)

let conv_with ~domains =
  let input = Tensor.create (Shape.make ~n:5 ~h:9 ~w:9 ~c:3) in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1.5 (Rng.create 97) input;
  let filter = Filter.create ~kh:3 ~kw:3 ~in_c:3 ~out_c:6 in
  Filter.fill_he_normal (Rng.create 98) filter;
  let input_range = Range.of_tensor input in
  let fmin, fmax = Filter.min_max filter in
  let filter_range = Range.make ~min:fmin ~max:fmax in
  let lut = Registry.lut (Registry.find_exn "mul8u_trunc8") in
  let config = Axconv.make_config ~chunk_size:2 ~domains lut in
  Pool.with_pool ~domains (fun pool ->
      Axconv.conv ~pool ~config ~input ~input_range ~filter ~filter_range
        ~spec:Conv_spec.default ())

let test_conv_bit_identical_across_domains () =
  let reference = conv_with ~domains:1 in
  List.iter
    (fun domains ->
      let out = conv_with ~domains in
      check_bool
        (Printf.sprintf "domains=%d bit-identical, diff %g" domains
           (Tensor.max_abs_diff reference out))
        true
        (Tensor.max_abs_diff reference out = 0.))
    domain_counts

(* --- sharded emulator: outputs, accuracy and counters --- *)

let sharded_run ~domains =
  let graph =
    Emulator.approximate_model ~multiplier:"mul8u_trunc8" ~domains
      (Resnet.build ~depth:8 ())
  in
  let dataset = Cifar.generate ~n:3 () in
  let profile = Profile.create () in
  let out =
    Emulator.run ~profile ~domains ~backend:Emulator.Cpu_gemm graph
      dataset.Cifar.images
  in
  let acc =
    Emulator.accuracy ~domains graph ~backend:Emulator.Cpu_gemm dataset
  in
  (out, acc, Profile.lut_lookups profile, Profile.macs profile)

let test_emulator_sharded_deterministic () =
  let out1, acc1, lut1, macs1 = sharded_run ~domains:1 in
  check_bool "counters populated" true (lut1 > 0 && macs1 > 0);
  List.iter
    (fun domains ->
      let out, acc, lut, macs = sharded_run ~domains in
      check_bool
        (Printf.sprintf "domains=%d output bit-identical, diff %g" domains
           (Tensor.max_abs_diff out1 out))
        true
        (Tensor.max_abs_diff out1 out = 0.);
      Alcotest.(check (float 0.))
        (Printf.sprintf "domains=%d accuracy" domains)
        acc1 acc;
      check_int (Printf.sprintf "domains=%d lut_lookups" domains) lut1 lut;
      check_int (Printf.sprintf "domains=%d macs" domains) macs1 macs)
    domain_counts

(* --- per-chunk metric accounting --- *)

let test_three_chunk_accounting () =
  List.iter
    (fun domains ->
      let input = Tensor.create (Shape.make ~n:5 ~h:6 ~w:6 ~c:2) in
      Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create 11) input;
      let filter = Filter.create ~kh:3 ~kw:3 ~in_c:2 ~out_c:4 in
      Filter.fill_he_normal (Rng.create 12) filter;
      let input_range = Range.of_tensor input in
      let fmin, fmax = Filter.min_max filter in
      let filter_range = Range.make ~min:fmin ~max:fmax in
      let lut = Registry.lut (Registry.find_exn "mul8u_exact") in
      (* n=5, chunk_size=2 -> chunks of 2, 2 and 1 images. *)
      let config = Axconv.make_config ~chunk_size:2 ~domains lut in
      let spec = Conv_spec.default in
      let profile = Profile.create () in
      let out =
        Pool.with_pool ~domains (fun pool ->
            Axconv.conv ~profile ~pool ~config ~input ~input_range ~filter
              ~filter_range ~spec ())
      in
      let out_shape = Tensor.shape out in
      let rows = Shape.(out_shape.n * out_shape.h * out_shape.w) in
      let taps = Filter.taps filter in
      let expected = rows * 4 * taps in
      let snap = Metrics.snapshot (Profile.metrics profile) in
      let counter name =
        match Metrics.find_counter snap name with Some v -> v | None -> 0
      in
      let tag = Printf.sprintf "domains=%d" domains in
      check_int (tag ^ " chunks") 3 (counter "chunks");
      check_int (tag ^ " lut_lookups") expected (counter "lut_lookups");
      check_int (tag ^ " macs") expected (counter "macs");
      check_int
        (tag ^ " im2col bytes")
        (rows * taps)
        (counter "im2col_bytes");
      (* Per-chunk timing stays coordinator-side: exactly one
         gemm_chunk_seconds observation per chunk, whatever the domain
         count or claim interleaving. *)
      (match Metrics.find_histogram snap "gemm_chunk_seconds" with
      | Some h -> check_int (tag ^ " chunk timing observations") 3 h.Metrics.count
      | None -> Alcotest.failf "%s gemm_chunk_seconds histogram missing" tag))
    domain_counts

let qsuite =
  List.map
    (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_dynamic_coverage; prop_dynamic_grain_alignment ]

let () =
  Alcotest.run "tfapprox_pool"
    [
      ( "primitives",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_covers_range;
          Alcotest.test_case "rows < workers" `Quick
            test_rows_fewer_than_workers;
          Alcotest.test_case "max_domains cap" `Quick
            test_max_domains_caps_split;
          Alcotest.test_case "map_array order" `Quick
            test_map_array_preserves_order;
          Alcotest.test_case "exception re-raised once" `Quick
            test_worker_exception_reraised_once;
          Alcotest.test_case "nested calls inline" `Quick
            test_nested_calls_run_inline;
          Alcotest.test_case "concurrent coordinators safe" `Quick
            test_concurrent_coordinators;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent_and_inline;
          Alcotest.test_case "stats and publish" `Quick test_stats_and_publish;
          Alcotest.test_case "per-domain stats and imbalance" `Quick
            test_per_domain_stats_and_imbalance;
          Alcotest.test_case "tracer attribution" `Quick
            test_pool_tracer_attribution;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "claims match sequential reference" `Quick
            test_claim_ranges_match_reference;
          Alcotest.test_case "skewed chunk costs" `Quick
            test_dynamic_skewed_costs;
          Alcotest.test_case "deterministic exception" `Quick
            test_dynamic_exception_deterministic;
          Alcotest.test_case "map_array order under claiming" `Quick
            test_dynamic_map_array_order;
          Alcotest.test_case "claim stats" `Quick test_dynamic_stats;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "conv bit-identical across domains" `Quick
            test_conv_bit_identical_across_domains;
          Alcotest.test_case "sharded emulator deterministic" `Quick
            test_emulator_sharded_deterministic;
          Alcotest.test_case "traced sharded deterministic" `Quick
            test_traced_sharded_deterministic;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "3-chunk batch counters" `Quick
            test_three_chunk_accounting;
        ] );
      ("fuzz", qsuite);
    ]
