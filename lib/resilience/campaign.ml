module Graph = Ax_nn.Graph
module Axconv = Ax_nn.Axconv
module Profile = Ax_nn.Profile
module Lut = Ax_arith.Lut
module Pool = Ax_pool.Pool
module Metrics = Ax_obs.Metrics
module Json = Ax_obs.Json
module Emulator = Tfapprox.Emulator

type trial = { label : string; faults : Fault.t list }

let zero_fault_trial = { label = "fault_free"; faults = [] }

type spec = {
  graph : Graph.t;
  dataset : Ax_data.Cifar.t;
  backend : Emulator.backend;
}

type row = {
  label : string;
  fault_count : int;
  accuracy : float;
  degradation : float;
  top1_flips : int;
}

type report = { baseline_accuracy : float; images : int; rows : row list }

(* {1 Trial builders} *)

let lut_bit_trials ?(kind = Fault.Bit_flip) ~seed ~sites ~bits () =
  List.map
    (fun bit ->
      if bit < 0 || bit > 15 then
        invalid_arg
          (Printf.sprintf "Campaign.lut_bit_trials: bit %d outside 0..15" bit);
      let faults =
        List.init sites (fun i ->
            let index =
              Fault.uniform ~seed [ bit; i ] Lut.entries
            in
            { Fault.site = Fault.Lut_entry { index; bit }; kind })
      in
      { label = Printf.sprintf "lut_bit_%d" bit; faults })
    bits

let lut_rate_trials ~seed ~rates =
  List.map
    (fun rate ->
      let faults = ref [] in
      for index = Lut.entries - 1 downto 0 do
        for bit = 15 downto 0 do
          if Fault.bernoulli ~seed [ index; bit ] rate then
            faults :=
              { Fault.site = Fault.Lut_entry { index; bit };
                kind = Fault.Bit_flip }
              :: !faults
        done
      done;
      { label = Printf.sprintf "lut_rate_%g" rate; faults = !faults })
    rates

let batch_trials ~name ~trials site_list =
  List.init trials (fun t ->
      {
        label = Printf.sprintf "%s_t%d" name t;
        faults =
          List.map
            (fun site -> { Fault.site; kind = Fault.Bit_flip })
            (site_list t);
      })

let weight_trials ~seed ~trials ~sites ~bit g =
  batch_trials ~name:"weights" ~trials (fun t ->
      Fault.random_weight_sites ~seed:(Fault.hash ~seed [ t ]) ~count:sites
        ~bit g)

let activation_trials ~seed ~trials ~sites ~bit g =
  batch_trials ~name:"activations" ~trials (fun t ->
      Fault.random_activation_sites ~seed:(Fault.hash ~seed [ t ])
        ~count:sites ~bit g)

(* {1 Running} *)

(* The LUT is the model of shared texture memory: configs across layers
   hold the same physical table, so a fault corrupts it once and every
   layer reading it sees the damage.  Cache by physical identity. *)
let swap_luts graph faults =
  let cache : (Lut.t * Lut.t) list ref = ref [] in
  let corrupted lut =
    match List.find_opt (fun (orig, _) -> orig == lut) !cache with
    | Some (_, c) -> c
    | None ->
      let c = Fault.corrupt_lut lut faults in
      cache := (lut, c) :: !cache;
      c
  in
  Graph.map_ops
    (fun n ->
      match n.Graph.op with
      | Graph.Ax_conv2d { filter; bias; spec; config } ->
        Graph.Ax_conv2d
          {
            filter;
            bias;
            spec;
            config = { config with Axconv.lut = corrupted config.Axconv.lut };
          }
      | Graph.Ax_depthwise_conv2d { filter; bias; spec; config } ->
        Graph.Ax_depthwise_conv2d
          {
            filter;
            bias;
            spec;
            config = { config with Axconv.lut = corrupted config.Axconv.lut };
          }
      | op -> op)
    graph

let prepare graph trial =
  let has p = List.exists p trial.faults in
  let graph =
    if has (fun f -> match f.Fault.site with Fault.Lut_entry _ -> true | _ -> false)
    then swap_luts graph trial.faults
    else graph
  in
  let graph = Fault.corrupt_graph graph trial.faults in
  let tap =
    if has (fun f ->
           match f.Fault.site with Fault.Activation _ -> true | _ -> false)
    then Some (Fault.tap trial.faults)
    else None
  in
  (graph, tap)

let run ?metrics ?profile ?domains spec ~trials =
  let domains =
    match domains with Some d -> d | None -> Pool.default_size ()
  in
  Profile.span profile ~name:"resilience.campaign"
    ~attrs:
      [
        ("trials", string_of_int (List.length trials));
        ("backend", Emulator.backend_name spec.backend);
        ("domains", string_of_int domains);
      ]
  @@ fun () ->
  let images = spec.dataset.Ax_data.Cifar.images in
  let labels = spec.dataset.Ax_data.Cifar.labels in
  let n_images = Array.length labels in
  if n_images = 0 then invalid_arg "Campaign.run: empty dataset";
  let accuracy_of preds =
    let correct = ref 0 in
    Array.iteri (fun i p -> if p = labels.(i) then incr correct) preds;
    float_of_int !correct /. float_of_int n_images
  in
  let baseline = Emulator.predictions spec.graph ~backend:spec.backend images in
  let baseline_accuracy = accuracy_of baseline in
  let trial_arr = Array.of_list trials in
  (* Trials fan out on the persistent pool; each trial is a pure
     function of its fault list, runs un-sharded (nested pool calls are
     inline), and never touches shared metrics — all accounting happens
     below on the coordinator in index order, so the report is
     bit-identical for every domain count. *)
  let pool = Pool.ensure ~domains in
  let preds =
    Pool.map_array pool ~max_domains:domains
      (fun trial ->
        let graph, tap = prepare spec.graph trial in
        Emulator.predictions ?tap graph ~backend:spec.backend images)
      trial_arr
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i p ->
           let trial = trial_arr.(i) in
           let accuracy = accuracy_of p in
           let flips = ref 0 in
           Array.iteri (fun j c -> if c <> baseline.(j) then incr flips) p;
           {
             label = trial.label;
             fault_count = List.length trial.faults;
             accuracy;
             degradation = baseline_accuracy -. accuracy;
             top1_flips = !flips;
           })
         preds)
  in
  (match metrics with
  | Some m ->
    Metrics.add m "resilience_trials" (Array.length trial_arr);
    Metrics.add m "resilience_faults_injected"
      (List.fold_left (fun acc r -> acc + r.fault_count) 0 rows);
    Metrics.add m "resilience_top1_flips"
      (List.fold_left (fun acc r -> acc + r.top1_flips) 0 rows)
  | None -> ());
  { baseline_accuracy; images = n_images; rows }

(* {1 Rendering} *)

let csv report =
  let f6 = Printf.sprintf "%.6f" in
  Tfapprox.Report.csv_table
    ~header:[ "label"; "faults"; "accuracy"; "degradation"; "top1_flips" ]
    ([ "baseline"; "0"; f6 report.baseline_accuracy; f6 0.; "0" ]
    :: List.map
         (fun r ->
           [
             r.label;
             string_of_int r.fault_count;
             f6 r.accuracy;
             f6 r.degradation;
             string_of_int r.top1_flips;
           ])
         report.rows)

let to_json report =
  Json.Obj
    [
      ("baseline_accuracy", Json.Float report.baseline_accuracy);
      ("images", Json.Int report.images);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("label", Json.String r.label);
                   ("faults", Json.Int r.fault_count);
                   ("accuracy", Json.Float r.accuracy);
                   ("degradation", Json.Float r.degradation);
                   ("top1_flips", Json.Int r.top1_flips);
                 ])
             report.rows) );
    ]

let pp ppf report =
  Format.fprintf ppf
    "@[<v>fault-injection campaign: %d image(s), baseline accuracy %.2f%%@,"
    report.images
    (100. *. report.baseline_accuracy);
  Format.fprintf ppf "%-18s %7s %9s %12s %11s@," "trial" "faults" "accuracy"
    "degradation" "top-1 flips";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %7d %8.2f%% %+11.2f%% %11d@," r.label
        r.fault_count
        (100. *. r.accuracy)
        ((-100. *. r.degradation) +. 0.) (* +0. folds away IEEE -0.00 *)
        r.top1_flips)
    report.rows;
  Format.fprintf ppf "@]"
