(* The observability layer: JSON round-trips, metrics snapshots, span
   tracing, phase partitioning, and the guarantee that instrumentation
   never changes emulator results. *)

module Json = Ax_obs.Json
module Metrics = Ax_obs.Metrics
module Trace = Ax_obs.Trace
module Profile = Ax_nn.Profile
module Emulator = Tfapprox.Emulator
module Resnet = Ax_models.Resnet
module Cifar = Ax_data.Cifar
module Tensor = Ax_tensor.Tensor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- json --- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "conv1 \"quoted\"\n\ttab");
        ("count", Json.Int 42);
        ("neg", Json.Int (-7));
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []) ]);
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.parse (Json.to_string v) = v)

let test_json_floats () =
  let v = Json.List [ Json.Float 1.5; Json.Float 3.0; Json.Float nan ] in
  let s = Json.to_string v in
  check_string "floats stay JSON numbers" "[1.5,3.0,null]" s;
  match Json.parse s with
  | Json.List [ a; b; Json.Null ] ->
    check_bool "1.5 back" true (Json.get_float a = Some 1.5);
    check_bool "3.0 back" true (Json.get_float b = Some 3.0)
  | _ -> Alcotest.fail "expected a 3-element list"

let test_json_parse_errors () =
  let rejects s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  List.iter rejects [ "{"; "[1,]"; "\"open"; "1 2"; ""; "{'a':1}"; "nul" ]

let test_json_escapes () =
  match Json.parse {|{"s":"aA\n\\"}|} with
  | v ->
    check_bool "escape decoding" true
      (Option.bind (Json.member "s" v) Json.get_string = Some "aA\n\\")

(* --- metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "lut_lookups" in
  Metrics.incr c 5;
  Metrics.incr c 7;
  check_int "accumulates" 12 (Metrics.value c);
  check_bool "same handle" true (Metrics.counter m "lut_lookups" == c);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr c (-1));
  Metrics.add m "macs" 3;
  let s = Metrics.snapshot m in
  check_bool "snapshot lists both" true
    (Metrics.find_counter s "lut_lookups" = Some 12
    && Metrics.find_counter s "macs" = Some 3)

let test_metrics_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.add m "lut_lookups" 100;
  Metrics.set_gauge m "hit_rate" 0.5;
  let before = Metrics.snapshot m in
  Metrics.add m "lut_lookups" 23;
  Metrics.add m "chunks" 2;
  Metrics.set_gauge m "hit_rate" 0.75;
  let d = Metrics.diff ~before ~after:(Metrics.snapshot m) in
  check_bool "existing counter diffed" true
    (Metrics.find_counter d "lut_lookups" = Some 23);
  check_bool "new counter full" true (Metrics.find_counter d "chunks" = Some 2);
  check_bool "gauge keeps after value" true
    (Metrics.find_gauge d "hit_rate" = Some 0.75)

let test_metrics_json_round_trip () =
  let m = Metrics.create () in
  Metrics.add m "lut_lookups" 9;
  Metrics.set_gauge m "images_per_sec" 4.5;
  let json = Metrics.to_json (Metrics.snapshot m) in
  let parsed = Json.parse (Json.to_string json) in
  let counter name =
    Option.bind (Json.member "counters" parsed) (fun c ->
        Option.bind (Json.member name c) Json.get_int)
  in
  let gauge name =
    Option.bind (Json.member "gauges" parsed) (fun g ->
        Option.bind (Json.member name g) Json.get_float)
  in
  check_bool "counter exported" true (counter "lut_lookups" = Some 9);
  check_bool "gauge exported" true (gauge "images_per_sec" = Some 4.5)

let test_metrics_prometheus () =
  let m = Metrics.create () in
  Metrics.add m "lut lookups/total" 3;
  Metrics.set_gauge m "hit_rate" 0.9;
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i =
      i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "counter type line" true
    (has "# TYPE tfapprox_lut_lookups_total counter");
  check_bool "sanitized sample" true (has "tfapprox_lut_lookups_total 3");
  check_bool "gauge line" true (has "# TYPE tfapprox_hit_rate gauge")

let test_metrics_reset () =
  let m = Metrics.create () in
  let c = Metrics.counter m "macs" in
  Metrics.incr c 4;
  Metrics.set_gauge m "hit_rate" 0.3;
  Metrics.reset m;
  check_int "counter zeroed" 0 (Metrics.value c);
  check_bool "gauge zeroed" true
    (Metrics.gauge_value (Metrics.gauge m "hit_rate") = 0.)

(* --- histograms --- *)

let test_hist_bucket_geometry () =
  check_int "nan lands in bucket 0" 0 (Metrics.bucket_index nan);
  check_int "infinity lands in bucket 0" 0 (Metrics.bucket_index infinity);
  check_int "zero lands in bucket 0" 0 (Metrics.bucket_index 0.);
  check_int "negative lands in bucket 0" 0 (Metrics.bucket_index (-3.));
  check_int "overflow clamps to last"
    (Metrics.hist_bucket_count - 1)
    (Metrics.bucket_index 1e60);
  (* Indexing is monotone and bounds bracket their bucket. *)
  let prev = ref (-1) in
  List.iter
    (fun v ->
      let i = Metrics.bucket_index v in
      check_bool (Printf.sprintf "monotone at %g" v) true (i >= !prev);
      prev := i;
      if i > 0 && i < Metrics.hist_bucket_count - 1 then begin
        check_bool
          (Printf.sprintf "lower bound < %g" v)
          true
          (Metrics.bucket_lower_bound i < v);
        check_bool
          (Printf.sprintf "%g <= upper bound" v)
          true
          (v <= Metrics.bucket_upper_bound i)
      end)
    [ 1e-9; 3e-9; 1e-6; 1e-3; 0.5; 1.0; 2.0; 100.; 1e4 ]

let test_hist_observe_and_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  check_int "fresh histogram empty" 0 (Metrics.h_count h);
  check_bool "empty quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  check_int "count" 5 (Metrics.h_count h);
  check_bool "sum" true (abs_float (Metrics.h_sum h -. 0.115) < 1e-12);
  (* Nearest-rank p50 of 5 samples is the 3rd (0.004); the estimate is
     the geometric bucket midpoint, so within one bucket width. *)
  let p50 = Metrics.quantile h 0.5 in
  check_bool
    (Printf.sprintf "p50 %.6f within a bucket of 0.004" p50)
    true
    (p50 >= 0.004 /. 1.2 && p50 <= 0.004 *. 1.2);
  (* Quantiles clamp to the observed extremes. *)
  check_bool "p0 >= min" true (Metrics.quantile h 0. >= 0.001);
  check_bool "p100 <= max" true (Metrics.quantile h 1. <= 0.1);
  check_bool "same handle" true (Metrics.histogram m "lat" == h);
  Metrics.observe_named m "lat" 0.2;
  check_int "observe_named shares the cell" 6 (Metrics.h_count h)

(* Nearest-rank with the same rank the implementation uses. *)
let empirical_rank values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
  List.nth sorted (min rank (n - 1))

let prop_hist_quantiles =
  QCheck.Test.make ~count:100 ~name:"histogram quantiles ordered and bracket"
    QCheck.(list_of_size Gen.(1 -- 80) (float_range 1e-8 1e3))
    (fun values ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "q" in
      List.iter (Metrics.observe h) values;
      let p50 = Metrics.quantile h 0.5
      and p90 = Metrics.quantile h 0.9
      and p99 = Metrics.quantile h 0.99 in
      let lo = List.fold_left min infinity values
      and hi = List.fold_left max neg_infinity values in
      let median = empirical_rank values 0.5 in
      p50 <= p90 && p90 <= p99
      && lo <= p50 && p99 <= hi
      && p50 >= median /. 1.2
      && p50 <= median *. 1.2)

let test_hist_snapshot_and_diff () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_named m "lat") [ 0.01; 0.02 ];
  let before = Metrics.snapshot m in
  List.iter (Metrics.observe_named m "lat") [ 1.0; 2.0; 4.0 ];
  let after = Metrics.snapshot m in
  (match Metrics.find_histogram after "lat" with
  | Some h ->
    check_int "cumulative count" 5 h.Metrics.count;
    check_bool "min tracked" true (h.Metrics.min = 0.01);
    check_bool "max tracked" true (h.Metrics.max = 4.0)
  | None -> Alcotest.fail "histogram missing from snapshot");
  let d = Metrics.diff ~before ~after in
  match Metrics.find_histogram d "lat" with
  | Some h ->
    check_int "diff counts only the region" 3 h.Metrics.count;
    check_bool "diff sum" true (abs_float (h.Metrics.sum -. 7.0) < 1e-9);
    (* Quantiles are recomputed from the diffed buckets: the region's
       median is 2.0, far from the cumulative median. *)
    check_bool
      (Printf.sprintf "diff p50 %.3f reflects the region" h.Metrics.p50)
      true
      (h.Metrics.p50 >= 2.0 /. 1.2 && h.Metrics.p50 <= 2.0 *. 1.2)
  | None -> Alcotest.fail "histogram missing from diff"

let test_hist_merge () =
  let shard = Metrics.create () in
  List.iter (Metrics.observe_named shard "lat") [ 0.5; 1.0 ];
  let into = Metrics.create () in
  Metrics.observe_named into "lat" 2.0;
  let snap = Metrics.snapshot shard in
  (match Metrics.find_histogram snap "lat" with
  | Some h ->
    Metrics.merge_histogram into "lat" h;
    (* Merging an empty snapshot must not disturb min/max. *)
    Metrics.merge_histogram into "lat"
      { h with Metrics.count = 0; buckets = []; sum = 0. }
  | None -> Alcotest.fail "shard histogram missing");
  match Metrics.find_histogram (Metrics.snapshot into) "lat" with
  | Some h ->
    check_int "counts summed" 3 h.Metrics.count;
    check_bool "sum summed" true (abs_float (h.Metrics.sum -. 3.5) < 1e-9);
    check_bool "min crosses shards" true (h.Metrics.min = 0.5);
    check_bool "max crosses shards" true (h.Metrics.max = 2.0)
  | None -> Alcotest.fail "merged histogram missing"

let has_sub text needle =
  let nl = String.length needle and hl = String.length text in
  let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_collision_dedupe () =
  let m = Metrics.create () in
  Metrics.add m "lut.hits" 1;
  Metrics.add m "lut/hits" 2;
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  (* Raw names sort "lut.hits" < "lut/hits", so the dot variant keeps
     the base exposition name and the slash variant gets _2. *)
  check_bool "first family keeps the base name" true
    (has_sub text "# HELP tfapprox_lut_hits lut.hits");
  check_bool "first sample" true (has_sub text "\ntfapprox_lut_hits 1\n");
  check_bool "collision suffixed deterministically" true
    (has_sub text "# HELP tfapprox_lut_hits_2 lut/hits");
  check_bool "second sample" true (has_sub text "\ntfapprox_lut_hits_2 2\n")

let test_prometheus_histogram_render () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_named m "gemm_chunk_seconds") [ 0.001; 0.01; 0.01 ];
  let text = Metrics.to_prometheus (Metrics.snapshot m) in
  check_bool "histogram type line" true
    (has_sub text "# TYPE tfapprox_gemm_chunk_seconds histogram");
  check_bool "cumulative buckets" true
    (has_sub text "tfapprox_gemm_chunk_seconds_bucket{le=\"");
  check_bool "+Inf bucket carries the count" true
    (has_sub text "tfapprox_gemm_chunk_seconds_bucket{le=\"+Inf\"} 3");
  check_bool "sum sample" true (has_sub text "tfapprox_gemm_chunk_seconds_sum");
  check_bool "count sample" true
    (has_sub text "tfapprox_gemm_chunk_seconds_count 3")

let test_hist_json_round_trip () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_named m "lat") [ 0.25; 0.5 ];
  let parsed = Json.parse (Json.to_string (Metrics.to_json (Metrics.snapshot m))) in
  let field name =
    Option.bind (Json.member "histograms" parsed) (fun h ->
        Option.bind (Json.member "lat" h) (Json.member name))
  in
  check_bool "count exported" true
    (Option.bind (field "count") Json.get_int = Some 2);
  check_bool "sum exported" true
    (Option.bind (field "sum") Json.get_float = Some 0.75);
  check_bool "p50 numeric" true
    (match Option.bind (field "p50") Json.get_float with
    | Some v -> v > 0.
    | None -> false)

(* --- structured log --- *)

module Log = Ax_obs.Log

(* Capture events in-process; always restore the global logger state. *)
let with_log_capture f =
  let events = ref [] in
  let old_threshold = Log.get_threshold () in
  Log.set_sink (fun e -> events := e :: !events);
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink (Log.text_sink ());
      Log.set_threshold old_threshold)
    (fun () -> f events)

let test_log_threshold_filters () =
  with_log_capture (fun events ->
      Log.set_threshold (Some Log.Info);
      Log.debug "too quiet";
      Log.info ~fields:[ ("k", Json.Int 1) ] "hello";
      Log.warn "watch out";
      check_int "debug filtered at info" 2 (List.length !events);
      check_bool "enabled agrees" true
        (Log.enabled Log.Warn && not (Log.enabled Log.Debug));
      Log.set_threshold (Some Log.Warn);
      Log.info "dropped";
      check_int "info filtered at warn" 2 (List.length !events);
      Log.set_threshold None;
      Log.error "silenced";
      check_int "None silences everything" 2 (List.length !events);
      match List.rev !events with
      | [ i; w ] ->
        check_string "info message" "hello" i.Log.message;
        check_bool "fields kept" true (i.Log.fields = [ ("k", Json.Int 1) ]);
        check_string "warn level" "warn" (Log.level_name w.Log.level)
      | _ -> Alcotest.fail "expected two captured events")

let test_log_configure_spec () =
  with_log_capture (fun _ ->
      Log.configure "debug";
      check_bool "debug level" true (Log.get_threshold () = Some Log.Debug);
      Log.configure "off";
      check_bool "off silences" true (Log.get_threshold () = None);
      Log.configure "warn,bogus-token";
      check_bool "unknown tokens ignored" true
        (Log.get_threshold () = Some Log.Warn))

let test_log_event_json () =
  let e =
    {
      Log.level = Log.Warn;
      message = "boom";
      fields = [ ("file", Json.String "x.json") ];
      time = 12.5;
    }
  in
  let parsed = Json.parse (Json.to_string (Log.event_to_json e)) in
  check_bool "level exported" true
    (Option.bind (Json.member "level" parsed) Json.get_string = Some "warn");
  check_bool "message exported" true
    (Option.bind (Json.member "msg" parsed) Json.get_string = Some "boom");
  check_bool "fields inlined" true
    (Option.bind (Json.member "file" parsed) Json.get_string = Some "x.json")

(* --- trace --- *)

let test_span_nesting_and_order () =
  let t = Trace.create () in
  let r =
    Trace.with_span t ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
        Trace.with_span t ~name:"inner" (fun () -> 21 * 2))
  in
  check_int "result threaded" 42 r;
  match Trace.spans t with
  | [ inner; outer ] ->
    (* completion order: children land in the ring before parents *)
    check_string "inner first" "inner" inner.Trace.name;
    check_string "outer second" "outer" outer.Trace.name;
    check_int "inner depth" 1 inner.Trace.depth;
    check_int "outer depth" 0 outer.Trace.depth;
    check_bool "durations positive" true
      (inner.Trace.dur_us > 0. && outer.Trace.dur_us > 0.);
    check_bool "inner starts inside outer" true
      (inner.Trace.start_us >= outer.Trace.start_us);
    check_bool "inner ends inside outer" true
      (inner.Trace.start_us +. inner.Trace.dur_us
      <= outer.Trace.start_us +. outer.Trace.dur_us +. 1.);
    check_bool "outer keeps attrs" true (outer.Trace.attrs = [ ("k", "v") ])
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_span_recorded_on_raise () =
  let t = Trace.create () in
  (try
     Trace.with_span t ~name:"boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  check_int "span survives the exception" 1 (Trace.span_count t);
  check_bool "depth unwound" true
    (Trace.with_span t ~name:"after" (fun () -> ());
     match Trace.spans t with
     | [ _; after ] -> after.Trace.depth = 0
     | _ -> false)

let test_ring_buffer_eviction () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.with_span t ~name:(Printf.sprintf "s%d" i) (fun () -> ())
  done;
  check_int "capacity bounds retention" 4 (Trace.span_count t);
  check_int "dropped counted" 6 (Trace.dropped t);
  check_bool "newest retained" true
    (List.map (fun s -> s.Trace.name) (Trace.spans t)
    = [ "s7"; "s8"; "s9"; "s10" ]);
  Trace.clear t;
  check_int "clear empties" 0 (Trace.span_count t);
  check_int "clear resets dropped" 0 (Trace.dropped t)

let test_chrome_export_well_formed () =
  let t = Trace.create () in
  Trace.with_span t ~name:"parent" ~attrs:[ ("layer", "conv1") ] (fun () ->
      Trace.with_span t ~name:"child" (fun () -> ()));
  let parsed = Json.parse (Trace.chrome_json_string t) in
  match Option.bind (Json.member "traceEvents" parsed) Json.get_list with
  | None -> Alcotest.fail "traceEvents missing"
  | Some events ->
    check_int "one event per span" 2 (List.length events);
    List.iter
      (fun e ->
        check_bool "complete event" true
          (Option.bind (Json.member "ph" e) Json.get_string = Some "X");
        check_bool "has name" true
          (Option.bind (Json.member "name" e) Json.get_string <> None);
        check_bool "nonzero duration" true
          (match Option.bind (Json.member "dur" e) Json.get_float with
          | Some d -> d > 0.
          | None -> false);
        check_bool "has timestamp" true
          (Option.bind (Json.member "ts" e) Json.get_float <> None))
      events;
    let parent =
      List.find
        (fun e ->
          Option.bind (Json.member "name" e) Json.get_string = Some "parent")
        events
    in
    check_bool "attrs exported as args" true
      (Option.bind (Json.member "args" parent) (fun a ->
           Option.bind (Json.member "layer" a) Json.get_string)
      = Some "conv1")

let test_tree_rendering () =
  let t = Trace.create () in
  Trace.with_span t ~name:"outer" (fun () ->
      Trace.with_span t ~name:"inner" ~attrs:[ ("x", "1") ] (fun () -> ()));
  let text = Format.asprintf "%a" Trace.pp_tree t in
  let has needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i =
      i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "outer listed" true (has "outer");
  check_bool "inner indented" true (has "  inner");
  check_bool "attrs printed" true (has "x=1")

let test_fork_merge_and_tids () =
  let parent = Trace.create () in
  Trace.with_span parent ~name:"coordinator" (fun () -> ());
  let fork1 = Trace.fork parent ~tid:1 in
  let fork2 = Trace.fork parent ~tid:2 in
  Trace.with_span fork1 ~name:"task-a" (fun () -> ());
  Trace.with_span fork2 ~name:"task-b" (fun () -> ());
  Trace.merge ~into:parent fork1;
  Trace.merge ~into:parent fork2;
  let tid_of name =
    List.find_map
      (fun (s : Trace.span) -> if s.Trace.name = name then Some s.Trace.tid else None)
      (Trace.spans parent)
  in
  check_int "all spans merged" 3 (Trace.span_count parent);
  check_bool "coordinator on tid 0" true (tid_of "coordinator" = Some 0);
  check_bool "fork 1 stamped" true (tid_of "task-a" = Some 1);
  check_bool "fork 2 stamped" true (tid_of "task-b" = Some 2);
  (* Chrome export carries the tid per event. *)
  let parsed = Json.parse (Trace.chrome_json_string parent) in
  (match Option.bind (Json.member "traceEvents" parsed) Json.get_list with
  | Some events ->
    let tids =
      List.sort_uniq compare
        (List.filter_map
           (fun e -> Option.bind (Json.member "tid" e) Json.get_int)
           events)
    in
    check_bool "distinct tid rows exported" true (tids = [ 0; 1; 2 ])
  | None -> Alcotest.fail "traceEvents missing");
  (* Drops travel with the merge: a tiny fork that evicted spans makes
     the merged trace admit incompleteness. *)
  let lossy = Trace.fork ~capacity:2 parent ~tid:3 in
  for i = 1 to 5 do
    Trace.with_span lossy ~name:(Printf.sprintf "l%d" i) (fun () -> ())
  done;
  check_int "fork drops counted" 3 (Trace.dropped lossy);
  Trace.merge ~into:parent lossy;
  check_int "drops inherited by the sink" 3 (Trace.dropped parent);
  Trace.clear parent;
  check_int "clear resets inherited drops" 0 (Trace.dropped parent)

(* --- phases --- *)

let busy () =
  let acc = ref 0 in
  for i = 1 to 200_000 do
    acc := !acc + i
  done;
  ignore !acc

let test_phases_partition () =
  let p = Profile.create () in
  let start = Unix.gettimeofday () in
  Profile.time (Some p) Profile.Other (fun () ->
      busy ();
      Profile.time (Some p) Profile.Quantization busy;
      busy ());
  let elapsed = Unix.gettimeofday () -. start in
  check_bool "both phases charged" true
    (Profile.seconds p Profile.Quantization > 0.
    && Profile.seconds p Profile.Other >= 0.);
  check_bool "phases partition elapsed time" true
    (abs_float (Profile.total_seconds p -. elapsed) < 1e-3);
  (* A raising thunk still settles its charge and unwinds the nesting. *)
  (try Profile.time (Some p) Profile.Init (fun () -> failwith "boom")
   with Failure _ -> ());
  Profile.time (Some p) Profile.Lut busy;
  check_bool "charge after a raise is not refunded from Init" true
    (Profile.seconds p Profile.Init >= 0. && Profile.seconds p Profile.Lut > 0.)

let allocate () =
  (* Enough boxed floats to guarantee minor-heap traffic. *)
  let l = List.init 50_000 (fun i -> float_of_int i +. 0.5) in
  ignore (List.fold_left ( +. ) 0. l)

let phases = [ Profile.Init; Profile.Quantization; Profile.Lut; Profile.Other ]

let total_words p =
  List.fold_left (fun acc ph -> acc +. Profile.minor_words p ph) 0. phases

let test_phases_gc_attribution () =
  let p = Profile.create () in
  let before = Gc.minor_words () in
  Profile.time (Some p) Profile.Other (fun () ->
      Profile.time (Some p) Profile.Lut allocate);
  let flat = Gc.minor_words () -. before in
  let inner = Profile.minor_words p Profile.Lut in
  check_bool "allocation charged to the allocating phase" true
    (inner >= 100_000.);
  (* Partition semantics: the outer phase is refunded, so the phases
     sum to what one flat measurement around the call saw. *)
  check_bool "outer refunded" true
    (abs_float (Profile.minor_words p Profile.Other) < 64.);
  check_bool "outer + inner = flat" true (abs_float (total_words p -. flat) < 64.);
  check_bool "never-charged phase reads zero" true
    (Profile.minor_words p Profile.Init = 0.);
  (* The shard-merge path folds words and seconds in. *)
  let q = Profile.create () in
  Profile.merge ~into:q p;
  Profile.merge ~into:q p;
  check_bool "merge folds words in" true
    (Profile.minor_words q Profile.Lut = 2. *. inner);
  check_bool "merge folds seconds in" true
    (Profile.seconds q Profile.Lut = 2. *. Profile.seconds p Profile.Lut)

let test_phases_gc_json_and_publish () =
  let p = Profile.create () in
  Profile.time (Some p) Profile.Lut allocate;
  Profile.publish_gc p;
  let snap = Metrics.snapshot (Profile.metrics p) in
  check_bool "per-phase gauge published" true
    (match Metrics.find_gauge snap "phase_lut_minor_words" with
    | Some v -> v = Profile.minor_words p Profile.Lut && v > 0.
    | None -> false);
  check_bool "every phase has a gauge" true
    (List.for_all
       (fun name -> Metrics.find_gauge snap name <> None)
       [
         "phase_init_minor_words";
         "phase_quantization_minor_words";
         "phase_other_minor_words";
       ]);
  let parsed = Json.parse (Json.to_string (Metrics.to_json snap)) in
  check_bool "phase gauge exported to json" true
    (match
       Option.bind (Json.member "gauges" parsed) (fun o ->
           Option.bind (Json.member "phase_lut_minor_words" o) Json.get_float)
     with
    | Some v -> v > 0.
    | None -> false);
  (* Process-lifetime readings ride along. *)
  check_bool "gc_minor_words gauge" true
    (match Metrics.find_gauge snap "gc_minor_words" with
    | Some v -> v > 0.
    | None -> false);
  check_bool "gc_heap_words gauge" true
    (Metrics.find_gauge snap "gc_heap_words" <> None)

(* What one charge costs on the minor heap: the ledger reads the clock
   and [Gc.minor_words] unboxed, so a charge allocates a handful of
   words instead of two [Gc.quick_stat] records. *)
let test_phases_charge_allocation () =
  let p = Some (Profile.create ()) in
  let empty () = () in
  let per_call f =
    for _ = 1 to 100 do
      f ()
    done;
    let n = 10_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let flat = per_call (fun () -> Profile.time p Profile.Lut empty) in
  let nested =
    per_call (fun () ->
        Profile.time p Profile.Other (fun () -> Profile.time p Profile.Lut empty))
  in
  check_bool (Printf.sprintf "one charge: %.1f words <= 16" flat) true (flat <= 16.);
  check_bool
    (Printf.sprintf "nested pair: %.1f words <= 32" nested)
    true (nested <= 32.)

(* --- profile regression (the Fig. 2 view) --- *)

let test_profile_nested_time_partitions () =
  let p = Profile.create () in
  let start = Unix.gettimeofday () in
  Profile.time (Some p) Profile.Other (fun () ->
      busy ();
      Profile.time (Some p) Profile.Lut busy;
      busy ());
  let elapsed = Unix.gettimeofday () -. start in
  let lut = Profile.seconds p Profile.Lut
  and other = Profile.seconds p Profile.Other in
  check_bool "inner charged" true (lut > 0.);
  check_bool "outer refunded, not double-charged" true (other >= -1e-9);
  check_bool
    (Printf.sprintf "partition exact (%.6f vs %.6f)" (lut +. other) elapsed)
    true
    (abs_float (lut +. other -. elapsed) < 1e-3);
  check_bool "total matches the partition" true
    (abs_float (Profile.total_seconds p -. (lut +. other)) < 1e-9)

let test_profile_negative_add_seconds_clamped () =
  let p = Profile.create () in
  Profile.add_seconds p Profile.Init (-5.);
  Profile.add_seconds p Profile.Lut 1.;
  let b = Profile.breakdown p in
  check_bool "negative phase clamped to zero share" true
    (b.Profile.init_pct = 0.);
  check_bool "remaining shares renormalized" true
    (abs_float (b.Profile.lut_pct -. 100.) < 1e-9);
  check_bool "seconds still reports the raw refund" true
    (Profile.seconds p Profile.Init = -5.)

let test_profile_counters_and_reset () =
  let tracer = Trace.create () in
  let p = Profile.create ~trace:tracer () in
  Profile.count_lut_lookups p 10;
  Profile.count_macs p 20;
  Profile.count p "im2col_bytes" 30;
  Profile.span (Some p) ~name:"x" (fun () -> ());
  check_int "lookups" 10 (Profile.lut_lookups p);
  check_int "macs" 20 (Profile.macs p);
  check_bool "custom counter in registry" true
    (Metrics.find_counter (Metrics.snapshot (Profile.metrics p)) "im2col_bytes"
    = Some 30);
  check_int "span recorded" 1 (Trace.span_count tracer);
  Profile.reset p;
  check_int "reset zeroes lookups" 0 (Profile.lut_lookups p);
  check_int "reset clears tracer" 0 (Trace.span_count tracer)

(* --- instrumented emulation --- *)

let approx_resnet8 () =
  Emulator.approximate_model ~multiplier:"mul8u_trunc8"
    (Resnet.build ~depth:8 ())

let test_instrumentation_is_behavior_neutral () =
  let graph = approx_resnet8 () in
  let data = (Cifar.generate ~n:2 ()).Cifar.images in
  let plain = Emulator.run ~backend:Emulator.Cpu_gemm graph data in
  let profile = Profile.create ~trace:(Trace.create ()) () in
  let traced = Emulator.run ~profile ~backend:Emulator.Cpu_gemm graph data in
  check_bool "bit-identical outputs" true
    (Tensor.max_abs_diff plain traced = 0.)

let test_traced_run_spans_and_counters () =
  let graph = approx_resnet8 () in
  let data = (Cifar.generate ~n:2 ()).Cifar.images in
  let tracer = Trace.create () in
  let profile = Profile.create ~trace:tracer () in
  ignore (Emulator.run ~profile ~backend:Emulator.Cpu_gemm graph data);
  let names =
    List.sort_uniq compare
      (List.map (fun s -> s.Trace.name) (Trace.spans tracer))
  in
  check_bool
    (Printf.sprintf "distinct span names (%d)" (List.length names))
    true
    (List.length names >= 3);
  check_bool "emulator span present" true (List.mem "emulator.run" names);
  check_bool "node spans present" true (List.mem "AxConv2D" names);
  check_bool "chunk spans present" true (List.mem "axconv.chunk" names);
  List.iter
    (fun (s : Trace.span) ->
      check_bool (s.Trace.name ^ " has nonzero duration") true
        (s.Trace.dur_us > 0.))
    (Trace.spans tracer);
  (* The metrics registry and the legacy accessors must agree. *)
  let snap = Metrics.snapshot (Profile.metrics profile) in
  check_bool "lut_lookups counter = Profile.lut_lookups" true
    (Metrics.find_counter snap "lut_lookups"
    = Some (Profile.lut_lookups profile));
  check_bool "lookups happened" true (Profile.lut_lookups profile > 0);
  check_bool "chunk counter" true
    (match Metrics.find_counter snap "chunks" with
    | Some n -> n > 0
    | None -> false);
  check_bool "im2col bytes counted" true
    (match Metrics.find_counter snap "im2col_bytes" with
    | Some n -> n > 0
    | None -> false);
  check_bool "images_per_sec gauge set" true
    (match Metrics.find_gauge snap "images_per_sec" with
    | Some v -> v > 0.
    | None -> false);
  (* Latency distributions: per-chunk GEMM, per-node Exec, and the whole
     run, each as a histogram with plausible quantiles. *)
  List.iter
    (fun name ->
      match Metrics.find_histogram snap name with
      | Some h ->
        check_bool (name ^ " populated") true (h.Metrics.count > 0);
        check_bool (name ^ " quantiles ordered") true
          (h.Metrics.p50 <= h.Metrics.p90 && h.Metrics.p90 <= h.Metrics.p99)
      | None -> Alcotest.failf "%s histogram missing" name)
    [ "gemm_chunk_seconds"; "exec_node_seconds"; "emulator_run_seconds" ];
  (* GC telemetry rides along on every profiled run. *)
  check_bool "phase gc gauges published" true
    (List.exists
       (fun (n, _) ->
         String.length n > 6 && String.sub n 0 6 = "phase_")
       snap.Metrics.gauges);
  (* Chrome export of the real run parses back. *)
  let parsed = Json.parse (Trace.chrome_json_string tracer) in
  match Option.bind (Json.member "traceEvents" parsed) Json.get_list with
  | Some events ->
    check_int "every span exported" (Trace.span_count tracer)
      (List.length events)
  | None -> Alcotest.fail "traceEvents missing"

let test_texcache_publish () =
  let cache =
    Ax_gpusim.Texcache.create ~size_bytes:1024 ~line_bytes:32 ~ways:2
  in
  for i = 0 to 99 do
    ignore (Ax_gpusim.Texcache.access cache (i mod 8 * 32))
  done;
  let m = Metrics.create () in
  Ax_gpusim.Texcache.publish cache m;
  let snap = Metrics.snapshot m in
  check_bool "accesses published" true
    (Metrics.find_counter snap "texcache_accesses" = Some 100);
  check_bool "hits + misses = accesses" true
    (match
       ( Metrics.find_counter snap "texcache_hits",
         Metrics.find_counter snap "texcache_misses" )
     with
    | Some h, Some miss -> h + miss = 100
    | _ -> false);
  (* Publishing again without new accesses must add nothing. *)
  Ax_gpusim.Texcache.publish cache m;
  check_bool "idempotent publish" true
    (Metrics.find_counter (Metrics.snapshot m) "texcache_accesses" = Some 100);
  check_bool "hit rate gauge" true
    (match Metrics.find_gauge snap "texcache_hit_rate" with
    | Some r -> r > 0. && r <= 1.
    | None -> false)

let test_fig2_accepts_tracer () =
  let tracer = Trace.create () in
  let rows =
    Tfapprox.Experiments.fig2 ~trace:tracer ~depths:[ 8 ] ~images_measured:1 ()
  in
  check_int "one row" 1 (List.length rows);
  check_bool "fig2 run produced spans" true (Trace.span_count tracer > 0)

let () =
  Alcotest.run "tfapprox_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "snapshot diff" `Quick test_metrics_snapshot_diff;
          Alcotest.test_case "json round trip" `Quick
            test_metrics_json_round_trip;
          Alcotest.test_case "prometheus" `Quick test_metrics_prometheus;
          Alcotest.test_case "reset" `Quick test_metrics_reset;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucket geometry" `Quick test_hist_bucket_geometry;
          Alcotest.test_case "observe and quantiles" `Quick
            test_hist_observe_and_quantiles;
          Alcotest.test_case "snapshot and diff" `Quick
            test_hist_snapshot_and_diff;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "prometheus collision dedupe" `Quick
            test_prometheus_collision_dedupe;
          Alcotest.test_case "prometheus histogram render" `Quick
            test_prometheus_histogram_render;
          Alcotest.test_case "json round trip" `Quick test_hist_json_round_trip;
          QCheck_alcotest.to_alcotest ~long:false prop_hist_quantiles;
        ] );
      ( "log",
        [
          Alcotest.test_case "threshold filters" `Quick
            test_log_threshold_filters;
          Alcotest.test_case "configure spec" `Quick test_log_configure_spec;
          Alcotest.test_case "event json" `Quick test_log_event_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and order" `Quick
            test_span_nesting_and_order;
          Alcotest.test_case "recorded on raise" `Quick
            test_span_recorded_on_raise;
          Alcotest.test_case "ring eviction" `Quick test_ring_buffer_eviction;
          Alcotest.test_case "chrome export" `Quick
            test_chrome_export_well_formed;
          Alcotest.test_case "tree rendering" `Quick test_tree_rendering;
          Alcotest.test_case "fork, merge and tids" `Quick
            test_fork_merge_and_tids;
        ] );
      ( "phases",
        [
          Alcotest.test_case "partition" `Quick test_phases_partition;
          Alcotest.test_case "gc attribution" `Quick test_phases_gc_attribution;
          Alcotest.test_case "gc json and publish" `Quick
            test_phases_gc_json_and_publish;
          Alcotest.test_case "charge allocation bounded" `Quick
            test_phases_charge_allocation;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested time partitions" `Quick
            test_profile_nested_time_partitions;
          Alcotest.test_case "negative add_seconds clamped" `Quick
            test_profile_negative_add_seconds_clamped;
          Alcotest.test_case "counters and reset" `Quick
            test_profile_counters_and_reset;
        ] );
      ( "emulator",
        [
          Alcotest.test_case "behavior neutral" `Quick
            test_instrumentation_is_behavior_neutral;
          Alcotest.test_case "spans and counters" `Quick
            test_traced_run_spans_and_counters;
          Alcotest.test_case "texcache publish" `Quick test_texcache_publish;
          Alcotest.test_case "fig2 tracer" `Quick test_fig2_accepts_tracer;
        ] );
    ]
