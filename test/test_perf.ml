(* The benchmark-trajectory tracker behind `bench -- history` and the
   `perf` CLI subcommand: snapshot parsing, JSON-lines history handling
   (including corrupt lines), best-of-history baselining, and the
   regression gate's verdicts in both directions. *)

module Perf = Tfapprox.Perf
module Json = Ax_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let record ?(label = "r") ?(bench = Perf.default_bench) ?(images = 2)
    ?ns_per_mac throughput =
  {
    Perf.label;
    bench;
    images;
    throughput =
      List.map
        (fun (domains, ips) ->
          { Perf.domains; seconds = 1.0; images_per_sec = ips })
        throughput;
    ns_per_mac;
  }

(* --- parsing --- *)

let bench_gemm_json =
  {|{"images": 2,
     "throughput": [
       {"domains": 1, "seconds": 0.5, "images_per_sec": 4.0},
       {"domains": 4, "seconds": 0.2, "images_per_sec": 10.0}],
     "micro": {"ns_per_mac": 25.0},
     "alloc": {"per_chunk_words": 0}}|}

let test_record_of_json () =
  let r = Perf.record_of_json ~label:"fallback" (Json.parse bench_gemm_json) in
  check_string "fallback label used" "fallback" r.Perf.label;
  check_int "images" 2 r.Perf.images;
  check_bool "d1 throughput" true (Perf.throughput_of r 1 = Some 4.0);
  check_bool "d4 throughput" true (Perf.throughput_of r 4 = Some 10.0);
  check_bool "unknown domain count" true (Perf.throughput_of r 2 = None);
  check_bool "ns/MAC from micro" true (r.Perf.ns_per_mac = Some 25.0);
  (* Unknown shapes degrade, they don't raise. *)
  let empty = Perf.record_of_json (Json.parse {|{"unrelated": true}|}) in
  check_bool "missing fields degrade" true
    (empty.Perf.throughput = [] && empty.Perf.ns_per_mac = None)

let test_record_json_round_trip () =
  let r = record ~label:"2026-08-08T00:00:00Z" ~ns_per_mac:12.5
      [ (1, 3.0); (4, 9.0) ]
  in
  let r' = Perf.record_of_json (Json.parse (Json.to_string (Perf.record_to_json r))) in
  check_bool "round trip" true (r = r');
  let no_mac = record [ (1, 3.0) ] in
  let no_mac' =
    Perf.record_of_json (Json.parse (Json.to_string (Perf.record_to_json no_mac)))
  in
  check_bool "absent ns/MAC stays absent" true (no_mac'.Perf.ns_per_mac = None)

let test_utc_label_shape () =
  let l = Perf.utc_label () in
  check_int "length" 20 (String.length l);
  check_bool "date/time separator" true (l.[10] = 'T');
  check_bool "zulu suffix" true (l.[19] = 'Z')

(* --- history file --- *)

let with_temp_file f =
  let path = Filename.temp_file "tfapprox_perf" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_history_round_trip_and_corruption () =
  check_bool "missing file is empty history" true
    (Perf.load_history "/nonexistent/tfapprox.jsonl" = []);
  with_temp_file (fun path ->
      Perf.append_history path (record ~label:"a" [ (1, 2.0) ]);
      Perf.append_history path (record ~label:"b" [ (1, 3.0) ]);
      (* A killed run can leave a truncated line; later appends follow. *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"label\": \"trunc\n";
      close_out oc;
      Perf.append_history path (record ~label:"c" [ (1, 4.0) ]);
      let history = Perf.load_history path in
      Alcotest.(check (list string))
        "order kept, corrupt line skipped" [ "a"; "b"; "c" ]
        (List.map (fun r -> r.Perf.label) history))

(* History lines written while the gemm bench still timed a compressed
   LUT read path carry an extra member; they must keep parsing to the
   same record and take part in the gate like any other line. *)
let legacy_history_line =
  {|{"label": "2026-08-01T00:00:00Z", "bench": "gemm", "images": 4,
     "throughput": [{"domains": 1, "seconds": 1.0, "images_per_sec": 8.0}],
     "micro": {"ns_per_mac": 4.75},
     "lut_compression": {"multiplier": "mul8u_trunc8",
                         "mode": "split-factored", "bytes": 6144,
                         "ratio": 21.3}}|}

let test_legacy_history_line () =
  let r = Perf.record_of_json (Json.parse legacy_history_line) in
  check_bool "parses to the same record" true
    (r
    = record ~label:"2026-08-01T00:00:00Z" ~images:4 ~ns_per_mac:4.75
        [ (1, 8.0) ]);
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc
        (String.concat " " (String.split_on_char '\n' legacy_history_line));
      output_char oc '\n';
      close_out oc;
      let history = Perf.load_history path in
      check_int "loaded from a history file" 1 (List.length history);
      let slow = record ~ns_per_mac:9.5 [ (1, 4.0) ] in
      check_bool "gates a slower run" true
        (Perf.regressed (Perf.gate ~threshold:0.2 ~history ~current:slow));
      let same = record ~ns_per_mac:4.75 [ (1, 8.0) ] in
      check_bool "passes an equal run" false
        (Perf.regressed (Perf.gate ~threshold:0.2 ~history ~current:same)))

(* --- gate --- *)

let test_compare_records_directions () =
  let baseline = record ~ns_per_mac:10.0 [ (1, 10.0); (4, 30.0) ] in
  (* d1 collapsed, d4 fine, ns/MAC blew up. *)
  let current = record ~ns_per_mac:20.0 [ (1, 5.0); (4, 29.0) ] in
  let verdicts =
    Perf.compare_records ~threshold:0.2 ~baseline ~current
  in
  check_int "one verdict per comparable metric" 3 (List.length verdicts);
  let by_metric m =
    List.find (fun v -> v.Perf.metric = m) verdicts
  in
  check_bool "throughput drop regresses" true
    (by_metric "images_per_sec_d1").Perf.regressed;
  check_bool "small drop within threshold" false
    (by_metric "images_per_sec_d4").Perf.regressed;
  check_bool "ns/MAC rise regresses" true (by_metric "ns_per_mac").Perf.regressed;
  check_bool "gate verdict" true (Perf.regressed verdicts);
  (* Faster is never a regression, whatever the threshold. *)
  let improved = record ~ns_per_mac:5.0 [ (1, 40.0); (4, 90.0) ] in
  check_bool "improvement passes" false
    (Perf.regressed (Perf.compare_records ~threshold:0.01 ~baseline ~current:improved));
  (* Metrics absent from the baseline are skipped, not judged. *)
  let sparse = record [ (8, 1.0) ] in
  check_bool "missing baseline skipped" true
    (Perf.compare_records ~threshold:0.2 ~baseline ~current:sparse = [])

let test_best_of_history () =
  check_bool "empty history" true (Perf.best_of [] = None);
  let history =
    [
      record ~label:"old" ~ns_per_mac:30.0 [ (1, 2.0) ];
      record ~label:"peak" ~ns_per_mac:20.0 [ (1, 6.0); (4, 12.0) ];
      record ~label:"slump" ~ns_per_mac:40.0 [ (1, 3.0); (4, 15.0) ];
    ]
  in
  match Perf.best_of history with
  | None -> Alcotest.fail "expected a baseline"
  | Some best ->
    check_bool "d1 peak" true (Perf.throughput_of best 1 = Some 6.0);
    check_bool "d4 peak from a later record" true
      (Perf.throughput_of best 4 = Some 15.0);
    check_bool "ns/MAC minimum" true (best.Perf.ns_per_mac = Some 20.0)

let test_gate_against_history () =
  let current = record [ (1, 5.0) ] in
  check_bool "no history, no verdicts" true
    (Perf.gate ~threshold:0.2 ~history:[] ~current = []);
  let history = [ record [ (1, 100.0) ] ] in
  let verdicts = Perf.gate ~threshold:0.2 ~history ~current in
  check_bool "synthetic regression caught" true (Perf.regressed verdicts);
  let ok = Perf.gate ~threshold:0.2 ~history:[ record [ (1, 5.5) ] ] ~current in
  check_bool "within threshold passes" false (Perf.regressed ok)

(* The shared history file interleaves gemm and explore records; the
   gate must only baseline against records of the current run's kind,
   or a fast explore evals/s line would permanently "regress" every
   subsequent gemm run (and vice versa). *)
let test_gate_partitions_by_bench () =
  let r = Perf.record_of_json (Json.parse bench_gemm_json) in
  check_string "missing bench member parses as gemm" Perf.default_bench
    r.Perf.bench;
  let explore = record ~bench:"explore" ~label:"e" [ (1, 500.0) ] in
  let explore' =
    Perf.record_of_json (Json.parse (Json.to_string (Perf.record_to_json explore)))
  in
  check_string "bench member round trips" "explore" explore'.Perf.bench;
  let history =
    [ record ~label:"gemm-base" [ (1, 10.0) ]; explore ]
  in
  let current_gemm = record ~label:"gemm-now" [ (1, 9.0) ] in
  check_bool "gemm gated against gemm only" false
    (Perf.regressed (Perf.gate ~threshold:0.2 ~history ~current:current_gemm));
  let slow_explore = record ~bench:"explore" ~label:"e2" [ (1, 100.0) ] in
  check_bool "explore gated against explore only" true
    (Perf.regressed (Perf.gate ~threshold:0.2 ~history ~current:slow_explore));
  (* First record of a new kind: nothing to gate against. *)
  let novel = record ~bench:"novel" [ (1, 1.0) ] in
  check_bool "unknown kind has empty baseline" true
    (Perf.gate ~threshold:0.2 ~history ~current:novel = [])

let test_report_json () =
  let baseline = record [ (1, 10.0) ] in
  let current = record [ (1, 2.0) ] in
  let verdicts = Perf.compare_records ~threshold:0.35 ~baseline ~current in
  let parsed =
    Json.parse (Json.to_string (Perf.report_to_json ~threshold:0.35 verdicts))
  in
  check_bool "regressed flag exported" true
    (Json.member "regressed" parsed = Some (Json.Bool true));
  match Option.bind (Json.member "verdicts" parsed) Json.get_list with
  | Some [ v ] ->
    check_bool "metric named" true
      (Option.bind (Json.member "metric" v) Json.get_string
      = Some "images_per_sec_d1");
    check_bool "ratio exported" true
      (match Option.bind (Json.member "ratio" v) Json.get_float with
      | Some r -> abs_float (r -. 0.2) < 1e-9
      | None -> false)
  | _ -> Alcotest.fail "expected one verdict"

let test_threshold_from_env () =
  let set v = Unix.putenv Perf.threshold_env_var v in
  let original = Sys.getenv_opt Perf.threshold_env_var in
  Fun.protect
    ~finally:(fun () ->
      set (match original with Some v -> v | None -> ""))
    (fun () ->
      set "0.1";
      check_bool "positive override" true (Perf.threshold_from_env () = 0.1);
      set "-3";
      check_bool "negative rejected" true
        (Perf.threshold_from_env () = Perf.default_threshold);
      set "wat";
      check_bool "garbage rejected" true
        (Perf.threshold_from_env () = Perf.default_threshold))

let () =
  Alcotest.run "tfapprox_perf"
    [
      ( "records",
        [
          Alcotest.test_case "of_json" `Quick test_record_of_json;
          Alcotest.test_case "json round trip" `Quick
            test_record_json_round_trip;
          Alcotest.test_case "utc label" `Quick test_utc_label_shape;
        ] );
      ( "history",
        [
          Alcotest.test_case "round trip and corruption" `Quick
            test_history_round_trip_and_corruption;
          Alcotest.test_case "legacy compressed-LUT line" `Quick
            test_legacy_history_line;
        ] );
      ( "gate",
        [
          Alcotest.test_case "verdict directions" `Quick
            test_compare_records_directions;
          Alcotest.test_case "best of history" `Quick test_best_of_history;
          Alcotest.test_case "gate against history" `Quick
            test_gate_against_history;
          Alcotest.test_case "bench partition" `Quick
            test_gate_partitions_by_bench;
          Alcotest.test_case "report json" `Quick test_report_json;
          Alcotest.test_case "threshold from env" `Quick
            test_threshold_from_env;
        ] );
    ]
