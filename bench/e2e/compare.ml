(* Compare two sets of e2e result files, one row per (workload,
   end-to-end metric).

     compare.exe [--benchmark BENCHMARK.json] BASE_DIR HEAD_DIR

   Each directory holds the files `e2e.exe --json FILE` wrote (traced
   runs are skipped); the i-th base file by name is paired with the
   i-th head file.  Each row gives both sides' median and quartiles, the
   share of pairs the head side wins, and a verdict:

   - improved: head wins at least 9 pairs in 10 (ties count for
     neither) and the medians differ, in head's favour, by more than the
     base side's own interquartile distance;
   - unresolved: a side's interquartile distance over its median is
     wider than the metric's bound, unless every head run beats every
     base run;
   - regressed: head's median is worse than base's by more than the
     bound;
   - no-regression: otherwise.

   Bounds and directions come from BENCHMARK.json.  Results from hosts
   with different fingerprints are refused (exit 2); any regressed row
   exits 1. *)

module Json = Ax_obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt
let read path = In_channel.with_open_text path In_channel.input_all

let parse path =
  try Json.parse (read path) with
  | Json.Parse_error e -> die "%s: %s" path e
  | Sys_error e -> die "%s" e

let field path k j =
  match Json.member k j with Some v -> v | None -> die "%s: no %S field" path k

type run = { workload : string; fingerprint : string; metrics : (string * float) list }

let load_dir dir =
  let files =
    try List.sort compare (Array.to_list (Sys.readdir dir))
    with Sys_error e -> die "%s" e
  in
  List.filter_map
    (fun f ->
      let path = Filename.concat dir f in
      if not (Filename.check_suffix f ".json") then None
      else
        let j = parse path in
        match Json.member "trace" j with
        | Some (Json.Bool true) -> None
        | _ ->
          let metrics =
            match Json.member "metrics" (field path "result" j) with
            | Some (Json.Obj ms) ->
              List.filter_map
                (fun (k, v) ->
                  Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.get_float))
                ms
            | _ -> die "%s: no result metrics" path
          in
          Some
            {
              workload = Option.value ~default:"" (Json.get_string (field path "workload" j));
              fingerprint = Json.to_string (field path "fingerprint" j);
              metrics;
            })
    files

type bound = { name : string; unit : string; higher : bool; bound : float }

let load_bounds path =
  let j = parse path in
  match Option.bind (Json.member "end_to_end" j) Json.get_list with
  | None -> die "%s: no end_to_end list" path
  | Some ms ->
    List.map
      (fun m ->
        let s k = Option.bind (Json.member k m) Json.get_string in
        match (s "name", s "unit", s "better", Option.bind (Json.member "bound" m) Json.get_float) with
        | Some name, Some unit, Some better, Some bound ->
          { name; unit; higher = better = "higher"; bound }
        | _ -> die "%s: malformed end_to_end entry" path)
      ms

let verdict b ~base ~head =
  let better x y = if b.higher then x > y else x < y in
  let bm = Stats.median base and hm = Stats.median head in
  let bq1, bq3 = Stats.quartiles base in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip base head in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  let win = float_of_int wins /. float_of_int (max 1 (List.length pairs)) in
  let worse = (if b.higher then bm -. hm else hm -. bm) /. Float.abs bm in
  let all_better = List.for_all (fun h -> List.for_all (better h) base) head in
  let wide = Stats.spread base > b.bound || Stats.spread head > b.bound in
  let v =
    if win >= 0.9 && better hm bm && Float.abs (hm -. bm) > bq3 -. bq1 then "improved"
    else if wide && not all_better then "unresolved"
    else if worse > b.bound then "regressed"
    else "no-regression"
  in
  (win, v)

let () =
  let bench = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string bench, "FILE bounds and directions (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--benchmark BENCHMARK.json] BASE_DIR HEAD_DIR";
  let base_dir, head_dir =
    match !dirs with [ b; h ] -> (b, h) | _ -> die "need exactly BASE_DIR and HEAD_DIR"
  in
  let bounds = load_bounds !bench in
  let base = load_dir base_dir and head = load_dir head_dir in
  (match List.sort_uniq compare (List.map (fun r -> r.fingerprint) (base @ head)) with
  | [ _ ] -> ()
  | [] -> die "no untraced result files"
  | fps -> die "host fingerprints differ, results are not comparable:\n  %s" (String.concat "\n  " fps));
  let workloads = List.sort_uniq compare (List.map (fun r -> r.workload) (base @ head)) in
  Printf.printf "%-16s %-20s %-30s %-30s %5s %6s  %s\n" "workload" "metric" "base median [q1, q3]"
    "head median [q1, q3]" "win" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      let values side name =
        List.filter_map
          (fun r -> if r.workload = w then List.assoc_opt name r.metrics else None)
          side
      in
      List.iter
        (fun b ->
          let bv = values base b.name and hv = values head b.name in
          if bv = [] || hv = [] then
            Printf.printf "%-16s %-20s missing on one side (%d base, %d head runs)\n" w b.name
              (List.length bv) (List.length hv)
          else begin
            let cell xs =
              let q1, q3 = Stats.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
            in
            let win, v = verdict b ~base:bv ~head:hv in
            if v = "regressed" then regressed := true;
            Printf.printf "%-16s %-20s %-30s %-30s %5.2f %6.2f  %s\n" w
              (b.name ^ " " ^ b.unit) (cell bv) (cell hv)
              win b.bound v
          end)
        bounds)
    workloads;
  exit (if !regressed then 1 else 0)
