module Json = Ax_obs.Json

type sample = { domains : int; seconds : float; images_per_sec : float }

type record = {
  label : string;
  bench : string;
  images : int;
  throughput : sample list;
  ns_per_mac : float option;
}

let default_bench = "gemm"

let int_field name j = Option.bind (Json.member name j) Json.get_int
let float_field name j = Option.bind (Json.member name j) Json.get_float
let string_field name j = Option.bind (Json.member name j) Json.get_string

let sample_of_json j =
  {
    domains = Option.value ~default:0 (int_field "domains" j);
    seconds = Option.value ~default:0. (float_field "seconds" j);
    images_per_sec = Option.value ~default:0. (float_field "images_per_sec" j);
  }

let record_of_json ?(label = "") j =
  let label = Option.value ~default:label (string_field "label" j) in
  (* Pre-partitioning history lines carry no [bench] member; they were
     all gemm runs, so that is the backward-compatible default. *)
  let bench = Option.value ~default:default_bench (string_field "bench" j) in
  let images = Option.value ~default:0 (int_field "images" j) in
  let throughput =
    match Option.bind (Json.member "throughput" j) Json.get_list with
    | Some l -> List.map sample_of_json l
    | None -> []
  in
  let ns_per_mac =
    Option.bind (Json.member "micro" j) (float_field "ns_per_mac")
  in
  { label; bench; images; throughput; ns_per_mac }

let sample_to_json s =
  Json.Obj
    [
      ("domains", Json.Int s.domains);
      ("seconds", Json.Float s.seconds);
      ("images_per_sec", Json.Float s.images_per_sec);
    ]

let record_to_json r =
  Json.Obj
    ([
       ("label", Json.String r.label);
       ("bench", Json.String r.bench);
       ("images", Json.Int r.images);
       ("throughput", Json.List (List.map sample_to_json r.throughput));
     ]
    @
    match r.ns_per_mac with
    | Some v -> [ ("micro", Json.Obj [ ("ns_per_mac", Json.Float v) ]) ]
    | None -> [])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_file path = record_of_json ~label:(Filename.basename path)
    (Json.parse (read_file path))

(* History is JSON-lines: one record per line, append-only, so CI runs
   and local runs interleave without merge conflicts inside one file.
   Unparseable lines are skipped — a truncated final line from a killed
   run must not wedge every later gate. *)
let load_history path =
  if not (Sys.file_exists path) then []
  else
    read_file path
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" then None
           else
             match Json.parse line with
             | j -> Some (record_of_json j)
             | exception _ -> None)

let append_history path r =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (record_to_json r) ^ "\n"))

let utc_label () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

type verdict = {
  metric : string;
  baseline : float;
  current : float;
  ratio : float;  (* current / baseline *)
  regressed : bool;
}

let default_threshold = 0.35
let threshold_env_var = "TFAPPROX_PERF_THRESHOLD"

let threshold_from_env () =
  match Sys.getenv_opt threshold_env_var with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some t when t > 0. -> t
    | Some _ | None -> default_threshold)
  | None -> default_threshold

let throughput_of r d =
  List.find_map
    (fun s -> if s.domains = d then Some s.images_per_sec else None)
    r.throughput

(* Compare one run against a baseline.  Throughput regresses when it
   falls below [1 - threshold] of the baseline, ns/MAC when it rises
   above [1 + threshold]; zero or missing baselines are skipped (no
   division, no false alarm from an empty fixture). *)
let compare_records ~threshold ~baseline ~current =
  let domain_verdicts =
    List.filter_map
      (fun s ->
        match throughput_of baseline s.domains with
        | Some base when base > 0. ->
          let ratio = s.images_per_sec /. base in
          Some
            {
              metric = Printf.sprintf "images_per_sec_d%d" s.domains;
              baseline = base;
              current = s.images_per_sec;
              ratio;
              regressed = ratio < 1. -. threshold;
            }
        | Some _ | None -> None)
      current.throughput
  in
  let mac_verdict =
    match (baseline.ns_per_mac, current.ns_per_mac) with
    | Some base, Some cur when base > 0. ->
      let ratio = cur /. base in
      [
        {
          metric = "ns_per_mac";
          baseline = base;
          current = cur;
          ratio;
          regressed = ratio > 1. +. threshold;
        };
      ]
    | _ -> []
  in
  domain_verdicts @ mac_verdict

(* The baseline for each metric is the best value it ever reached in
   the history — a gate against the trajectory's peak, not just the
   previous (possibly already-regressed) run. *)
let best_of history =
  match history with
  | [] -> None
  | first :: rest ->
    let best_sample acc s =
      match throughput_of acc s.domains with
      | Some existing when existing >= s.images_per_sec -> acc
      | Some _ | None ->
        {
          acc with
          throughput =
            List.map
              (fun t -> if t.domains = s.domains then s else t)
              acc.throughput
            @ (if List.exists (fun t -> t.domains = s.domains) acc.throughput
               then []
               else [ s ]);
        }
    in
    let merge acc r =
      let acc = List.fold_left best_sample acc r.throughput in
      match (acc.ns_per_mac, r.ns_per_mac) with
      | Some a, Some b when b < a -> { acc with ns_per_mac = Some b }
      | None, (Some _ as b) -> { acc with ns_per_mac = b }
      | _ -> acc
    in
    Some (List.fold_left merge { first with label = "best-of-history" } rest)

(* The gate is per benchmark kind: an explore evaluations/s record in
   the shared history file must never become the gemm throughput
   baseline (and vice versa), so only records of the current run's
   [bench] participate in the best-of baseline. *)
let gate ~threshold ~history ~current =
  let history = List.filter (fun r -> r.bench = current.bench) history in
  match best_of history with
  | None -> []
  | Some baseline -> compare_records ~threshold ~baseline ~current

let regressed verdicts = List.exists (fun v -> v.regressed) verdicts

let verdict_to_json v =
  Json.Obj
    [
      ("metric", Json.String v.metric);
      ("baseline", Json.Float v.baseline);
      ("current", Json.Float v.current);
      ("ratio", Json.Float v.ratio);
      ("regressed", Json.Bool v.regressed);
    ]

let report_to_json ~threshold verdicts =
  Json.Obj
    [
      ("threshold", Json.Float threshold);
      ("verdicts", Json.List (List.map verdict_to_json verdicts));
      ("regressed", Json.Bool (regressed verdicts));
    ]

let pp_verdicts ppf verdicts =
  Format.fprintf ppf "@[<v>%-22s %12s %12s %8s  %s@,"
    "metric" "baseline" "current" "ratio" "status";
  List.iter
    (fun v ->
      Format.fprintf ppf "%-22s %12.4g %12.4g %8.3f  %s@," v.metric v.baseline
        v.current v.ratio
        (if v.regressed then "REGRESSED" else "ok"))
    verdicts;
  Format.fprintf ppf "@]"

let pp_history ppf history =
  Format.fprintf ppf "@[<v>%-22s %8s %14s %14s %12s@,"
    "label" "images" "img/s (d1)" "img/s (d4)" "ns/MAC";
  List.iter
    (fun r ->
      let t d =
        match throughput_of r d with
        | Some v -> Printf.sprintf "%.2f" v
        | None -> "-"
      in
      let mac =
        match r.ns_per_mac with
        | Some v -> Printf.sprintf "%.3f" v
        | None -> "-"
      in
      Format.fprintf ppf "%-22s %8d %14s %14s %12s@,"
        (if r.label = "" then "(unlabelled)" else r.label)
        r.images (t 1) (t 4) mac)
    history;
  Format.fprintf ppf "@]"
