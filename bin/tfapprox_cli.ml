(* Command-line front end: run the paper's experiments, explore the
   multiplier catalogue, export gate-level multipliers to Verilog, and
   dump LUT files. *)

open Cmdliner

let depths_arg =
  let parse s =
    try Ok (List.map int_of_string (String.split_on_char ',' s))
    with Failure _ -> Error (`Msg "depths: comma-separated integers expected")
  in
  let print ppf ds =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int ds))
  in
  Arg.conv (parse, print)

let depths_term =
  Arg.(
    value
    & opt depths_arg Ax_models.Resnet.table1_depths
    & info [ "depths" ] ~docv:"D1,D2,..." ~doc:"ResNet depths to evaluate.")

let images_term =
  Arg.(
    value & opt int 2
    & info [ "images" ]
        ~doc:"Images actually timed on the CPU (scaled to the dataset).")

let dataset_term =
  Arg.(
    value & opt int 10_000
    & info [ "dataset" ] ~doc:"Dataset size the results are scaled to.")

let multiplier_term =
  Arg.(
    value & opt string "mul8u_trunc8"
    & info [ "multiplier"; "m" ] ~doc:"Registry name of the multiplier.")

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains (1-64) for the persistent emulator pool.  \
           Sizes the process-wide pool, parallelizes the AxConv2D \
           Im2Cols/GEMM loops, and shards the batch per image; results \
           are bit-identical for every N.  Defaults to the \
           $(b,TFAPPROX_DOMAINS) environment variable, falling back to \
           the un-sharded single-domain emulator.")

let device_term =
  let parse = function
    | "gtx-1080" -> Ok Ax_gpusim.Device.gtx_1080
    | "jetson" -> Ok Ax_gpusim.Device.jetson_class
    | "datacenter" -> Ok Ax_gpusim.Device.datacenter_class
    | s -> Error (`Msg (Printf.sprintf "unknown device %s" s))
  in
  let print ppf d = Format.pp_print_string ppf d.Ax_gpusim.Device.name in
  Arg.(
    value
    & opt (conv (parse, print)) Ax_gpusim.Device.gtx_1080
    & info [ "device" ] ~doc:"GPU model: gtx-1080, jetson or datacenter.")

let csv_term =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the table.")

let trace_file_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the measured runs to $(docv) \
           (open in chrome://tracing or Perfetto).")

let metrics_file_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a metrics snapshot JSON to $(docv) (\"-\" for stdout).")

(* Operator-error hardening and the exit-code contract (see the README
   table): anything the operator typed wrong — a registry-name typo, a
   malformed comma-separated list, a bad spec — exits 2; anything that
   went wrong at runtime despite a well-formed invocation — a missing
   or corrupt artefact, a graph the verifier rejects, an unreachable
   daemon — exits 1.  Both print one line on stderr, never a backtrace.
   cmdliner's own converter errors exit with its reserved code 124, so
   list parsing happens inside the run functions, under this wrapper. *)
let usage_error msg =
  Format.eprintf "tfapprox: %s@." msg;
  exit 2

let runtime_error msg =
  Format.eprintf "tfapprox: %s@." msg;
  exit 1

let guarded f =
  try f () with
  | Failure msg | Invalid_argument msg -> usage_error msg
  | Sys_error msg -> runtime_error msg
  | Unix.Unix_error (err, fn, arg) ->
    runtime_error
      (Printf.sprintf "%s%s: %s" fn
         (if arg = "" then "" else " " ^ arg)
         (Unix.error_message err))
  | Ax_arith.Load_error.Error e ->
    runtime_error (Ax_arith.Load_error.to_string e)
  | Ax_nn.Nn_error.Error e -> runtime_error (Ax_nn.Nn_error.to_string e)
  | Ax_analysis.Diagnostic.Rejected ds ->
    List.iter
      (fun d -> Format.eprintf "tfapprox: %a@." Ax_analysis.Diagnostic.pp d)
      ds;
    runtime_error "graph rejected by static verification"

let backend_of_string = function
  | "accurate" -> Tfapprox.Emulator.Cpu_accurate
  | "direct" -> Tfapprox.Emulator.Cpu_direct
  | "gemm" -> Tfapprox.Emulator.Cpu_gemm
  | other -> failwith (Printf.sprintf "unknown backend %s" other)

let int_list ~what s =
  try List.map int_of_string (String.split_on_char ',' (String.trim s))
  with Failure _ ->
    failwith (Printf.sprintf "%s: comma-separated integers expected, got %S" what s)

let float_list ~what s =
  try List.map float_of_string (String.split_on_char ',' (String.trim s))
  with Failure _ ->
    failwith (Printf.sprintf "%s: comma-separated numbers expected, got %S" what s)

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

module Log = Ax_obs.Log

(* Progress/diagnostic chatter goes through the structured log (stderr,
   honouring --quiet and $TFAPPROX_LOG); data output — tables, CSV,
   "--json -" dumps — stays on stdout untouched, so pipes keep
   working. *)
let quiet_term =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ]
        ~doc:
          "Suppress informational chatter on stderr (raises the log \
           threshold to warnings; data output on stdout is unaffected).  \
           $(b,TFAPPROX_LOG) offers finer control, e.g. \
           TFAPPROX_LOG=debug,json.")

let apply_quiet quiet = if quiet then Log.set_threshold (Some Log.Warn)

(* Every trace export surfaces ring-buffer eviction: a truncated Chrome
   trace silently missing its earliest spans would mislead a profiling
   session.  The drop count also lands in [metrics] as the
   [trace.dropped] counter when a registry is at hand. *)
let dump_trace ?metrics tracer = function
  | None -> ()
  | Some path ->
    write_file path (Ax_obs.Trace.chrome_json_string tracer);
    let dropped = Ax_obs.Trace.dropped tracer in
    (match metrics with
    | Some m -> Ax_obs.Metrics.add m "trace.dropped" dropped
    | None -> ());
    if dropped > 0 then
      Log.warn
        ~fields:
          [
            ("file", Ax_obs.Json.String path);
            ("dropped", Ax_obs.Json.Int dropped);
          ]
        "trace ring buffer overflowed; the exported trace is incomplete";
    Log.info
      ~fields:[ ("spans", Ax_obs.Json.Int (Ax_obs.Trace.span_count tracer)) ]
      (Printf.sprintf "wrote %s" path)

let dump_metrics metrics = function
  | None -> ()
  | Some path ->
    let text =
      Ax_obs.Json.to_string
        (Ax_obs.Metrics.to_json (Ax_obs.Metrics.snapshot metrics))
    in
    if path = "-" then print_endline text
    else begin
      write_file path text;
      Log.info (Printf.sprintf "wrote %s" path)
    end

let table1_cmd =
  let run device multiplier depths images dataset csv =
    guarded @@ fun () ->
    let rows =
      Tfapprox.Experiments.table1 ~device ~multiplier ~depths
        ~images_measured:images ~dataset_images:dataset ()
    in
    if csv then print_string (Tfapprox.Report.table1_csv rows)
    else Tfapprox.Report.print_table1 Format.std_formatter rows
  in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table I")
    Term.(
      const run $ device_term $ multiplier_term $ depths_term $ images_term
      $ dataset_term $ csv_term)

let fig2_cmd =
  let run device multiplier depths images dataset csv trace_file quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let tracer =
      match trace_file with
      | Some _ -> Some (Ax_obs.Trace.create ())
      | None -> None
    in
    let rows =
      Tfapprox.Experiments.fig2 ?trace:tracer ~device ~multiplier ~depths
        ~images_measured:images ~dataset_images:dataset ()
    in
    if csv then print_string (Tfapprox.Report.fig2_csv rows)
    else Tfapprox.Report.print_fig2 Format.std_formatter rows;
    Option.iter (fun tracer -> dump_trace tracer trace_file) tracer
  in
  let depths =
    Arg.(
      value & opt depths_arg [ 8; 32; 50; 62 ]
      & info [ "depths" ] ~docv:"D1,D2,..." ~doc:"Configurations to profile.")
  in
  Cmd.v (Cmd.info "fig2" ~doc:"Regenerate the Fig. 2 time breakdown")
    Term.(
      const run $ device_term $ multiplier_term $ depths $ images_term
      $ dataset_term $ csv_term $ trace_file_term $ quiet_term)

let sweep_cmd =
  let run depth images =
    guarded @@ fun () ->
    let rows = Tfapprox.Experiments.accuracy_sweep ~depth ~images () in
    Tfapprox.Report.print_accuracy_sweep Format.std_formatter rows
  in
  let depth =
    Arg.(value & opt int 8 & info [ "depth" ] ~doc:"ResNet depth.")
  in
  let images =
    Arg.(value & opt int 40 & info [ "images" ] ~doc:"Evaluation images.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Accuracy/fidelity sweep over candidate multipliers")
    Term.(const run $ depth $ images)

let multipliers_cmd =
  let run verbose =
    guarded @@ fun () ->
    List.iter
      (fun e ->
        if verbose then begin
          let m =
            Ax_arith.Error_metrics.compute_lut (Ax_arith.Registry.lut e)
          in
          Format.printf "%-20s %-8s %a@." e.Ax_arith.Registry.name
            (Ax_arith.Signedness.to_string e.Ax_arith.Registry.signedness)
            Ax_arith.Error_metrics.pp m
        end
        else
          Format.printf "%-20s %-8s %s@." e.Ax_arith.Registry.name
            (Ax_arith.Signedness.to_string e.Ax_arith.Registry.signedness)
            e.Ax_arith.Registry.description)
      (Ax_arith.Registry.all ())
  in
  let verbose =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print full error metrics.")
  in
  Cmd.v (Cmd.info "multipliers" ~doc:"List the multiplier catalogue")
    Term.(const run $ verbose)

let verilog_cmd =
  let run kind bits cut output quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let m =
      match kind with
      | "exact" -> Ax_netlist.Multipliers.unsigned_array ~bits
      | "truncated" -> Ax_netlist.Multipliers.truncated ~bits ~cut
      | "bam" -> Ax_netlist.Multipliers.broken_array ~bits ~hbl:2 ~vbl:cut
      | "signed" -> Ax_netlist.Multipliers.baugh_wooley_signed ~bits
      | other -> failwith (Printf.sprintf "unknown kind %s" other)
    in
    let text = Ax_netlist.Verilog.to_string m.Ax_netlist.Multipliers.circuit in
    (match output with
    | None -> print_string text
    | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc);
    if Log.enabled Log.Info then begin
      let r = Ax_netlist.Power.analyze m.Ax_netlist.Multipliers.circuit in
      Format.eprintf "%a@." Ax_netlist.Power.pp_report r
    end
  in
  let kind =
    Arg.(
      value & opt string "exact"
      & info [ "kind" ] ~doc:"exact, truncated, bam or signed.")
  in
  let bits = Arg.(value & opt int 8 & info [ "bits" ] ~doc:"Operand width.") in
  let cut =
    Arg.(value & opt int 8 & info [ "cut" ] ~doc:"Truncation / break level.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output file (stdout otherwise).")
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Export a gate-level multiplier to Verilog")
    Term.(const run $ kind $ bits $ cut $ output $ quiet_term)

let lut_cmd =
  let run name output quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let lut = Tfapprox.Emulator.lut_of_multiplier name in
    Ax_arith.Lut.save output lut;
    Log.info
      ~fields:[ ("bytes", Ax_obs.Json.Int Ax_arith.Lut.size_bytes) ]
      (Printf.sprintf "wrote %s" output)
  in
  let mult_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MULTIPLIER" ~doc:"Registry name.")
  in
  let output =
    Arg.(
      value & opt string "multiplier.axlut"
      & info [ "o"; "output" ] ~doc:"Output path.")
  in
  Cmd.v (Cmd.info "lut" ~doc:"Tabulate a multiplier into a 128 kB LUT file")
    Term.(const run $ mult_name $ output $ quiet_term)

let model_cmd =
  let run depth multiplier output quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let graph = Ax_models.Resnet.build ~depth () in
    let graph =
      match multiplier with
      | None -> graph
      | Some m -> Tfapprox.Emulator.approximate_model ~multiplier:m graph
    in
    Ax_nn.Model_io.save output graph;
    Log.info
      ~fields:[ ("nodes", Ax_obs.Json.Int (Ax_nn.Graph.size graph)) ]
      (Printf.sprintf "wrote %s" output)
  in
  let depth = Arg.(value & opt int 8 & info [ "depth" ] ~doc:"ResNet depth.") in
  let multiplier =
    Arg.(
      value
      & opt (some string) None
      & info [ "multiplier"; "m" ]
          ~doc:"Transform with this multiplier before saving.")
  in
  let output =
    Arg.(value & opt string "model.axmdl" & info [ "o"; "output" ] ~doc:"Path.")
  in
  Cmd.v
    (Cmd.info "save-model"
       ~doc:"Build (and optionally transform) a ResNet and serialize it")
    Term.(const run $ depth $ multiplier $ output $ quiet_term)

(* [--domains N] wins; otherwise an exported TFAPPROX_DOMAINS opts in
   with its (clamped) value; otherwise the legacy un-sharded emulator. *)
let resolve_domains = function
  | Some _ as d -> d
  | None -> (
    match Sys.getenv_opt Ax_pool.Pool.env_var with
    | Some s when String.trim s <> "" -> Some (Ax_pool.Pool.recommended ())
    | Some _ | None -> None)

let trace_cmd =
  let run device depth multiplier images backend domains trace_file
      metrics_file tree prometheus quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let backend = backend_of_string backend in
    let domains = resolve_domains domains in
    (match domains with
    | Some d -> Ax_pool.Pool.set_default_size d
    | None -> ());
    let graph =
      Tfapprox.Emulator.approximate_model ~multiplier ?domains
        (Ax_models.Resnet.build ~depth ())
    in
    let data = (Ax_data.Cifar.generate ~n:images ()).Ax_data.Cifar.images in
    let tracer = Ax_obs.Trace.create () in
    let profile = Ax_nn.Profile.create ~trace:tracer () in
    ignore (Tfapprox.Emulator.run ~profile ?domains ~backend graph data);
    let metrics = Ax_nn.Profile.metrics profile in
    (* Hit-rate sampling needs at least one image to stream codes from;
       an empty batch still produces a (trivial) trace. *)
    if images > 0 then
      ignore
        (Tfapprox.Experiments.measured_lut_hit_rate ~metrics ~device ~graph
           ~sample:data ());
    dump_trace ~metrics tracer trace_file;
    dump_metrics metrics metrics_file;
    if tree then Format.printf "%a@." Ax_obs.Trace.pp_tree tracer;
    if prometheus then
      print_string (Ax_obs.Metrics.to_prometheus (Ax_obs.Metrics.snapshot metrics));
    Format.printf "ResNet-%d, %d image(s), %s: %a@." depth images
      (Tfapprox.Emulator.backend_name backend)
      Ax_nn.Profile.pp_breakdown
      (Ax_nn.Profile.breakdown profile);
    (* The emulator sets this gauge on profiled runs; absent for an
       empty batch, which returns without evaluating. *)
    let snap = Ax_obs.Metrics.snapshot metrics in
    match List.assoc_opt "images_per_sec" snap.Ax_obs.Metrics.gauges with
    | Some ips -> Format.printf "throughput: %.2f images/sec@." ips
    | None -> ()
  in
  let depth =
    Arg.(value & opt int 8 & info [ "depth" ] ~doc:"ResNet depth.")
  in
  let images =
    Arg.(value & opt int 2 & info [ "images" ] ~doc:"Images to run.")
  in
  let backend =
    Arg.(
      value & opt string "gemm"
      & info [ "backend" ] ~doc:"accurate, direct or gemm.")
  in
  let tree =
    Arg.(
      value & flag & info [ "tree" ] ~doc:"Print the span tree to stdout.")
  in
  let prometheus =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:"Print the metrics in Prometheus text format.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one instrumented inference and export the span trace and \
          metrics")
    Term.(
      const run $ device_term $ depth $ multiplier_term $ images $ backend
      $ domains_term $ trace_file_term $ metrics_file_term $ tree
      $ prometheus $ quiet_term)

let analyze_cmd =
  let run depth multiplier images =
    guarded @@ fun () ->
    let graph = Ax_models.Resnet.build ~depth () in
    let approx = Tfapprox.Emulator.approximate_model ~multiplier graph in
    let sample =
      (Ax_data.Cifar.generate ~n:images ()).Ax_data.Cifar.images
    in
    let errors = Tfapprox.Calibrate.mean_channel_error ~sample approx in
    Format.printf "per-layer mean |error| vs exact LUT (%s):@." multiplier;
    List.iter
      (fun (name, e) -> Format.printf "  %-28s %.5f@." name e)
      errors
  in
  let depth = Arg.(value & opt int 8 & info [ "depth" ] ~doc:"ResNet depth.") in
  let images =
    Arg.(value & opt int 4 & info [ "images" ] ~doc:"Analysis sample size.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Per-layer error introduced by an approximate multiplier")
    Term.(const run $ depth $ multiplier_term $ images)

let check_cmd =
  let module D = Ax_analysis.Diagnostic in
  let module Check = Ax_analysis.Check in
  let run models luts mults suite multiplier input_s headroom json_out =
    guarded @@ fun () ->
    let input =
      match int_list ~what:"--input" input_s with
      | [ n; h; w; c ] -> Ax_tensor.Shape.make ~n ~h ~w ~c
      | _ -> failwith "--input: expected N,H,W,C"
    in
    let explicit = models <> [] || luts <> [] || mults <> [] in
    let do_models, do_mults, do_conc =
      match (explicit, suite) with
      | true, _ -> (false, false, false)
      | false, "models" -> (true, false, false)
      | false, "multipliers" -> (false, true, false)
      | false, "concurrency" -> (false, false, true)
      | false, "all" -> (true, true, false)
      | false, other ->
        failwith
          (Printf.sprintf
             "--suite: expected models, multipliers, concurrency or all, \
              got %s" other)
    in
    (* (unit name, findings, headroom rows) in analysis order *)
    let units = ref [] in
    let add name ds layers = units := (name, ds, layers) :: !units in
    if do_models then
      List.iter
        (fun (name, g, shape) ->
          let ds, layers = Check.graph ~input:shape g in
          add name ds layers;
          let approx =
            Tfapprox.Emulator.approximate_model ~multiplier g
          in
          let ds, layers = Check.graph ~input:shape approx in
          add (name ^ "+" ^ multiplier) ds layers)
        [
          ("lenet", Ax_models.Lenet.build (), Ax_models.Lenet.input_shape ~batch:1);
          ( "mobilenet",
            Ax_models.Mobilenet.build (),
            Ax_models.Mobilenet.input_shape ~batch:1 );
          ( "resnet-8",
            Ax_models.Resnet.build ~depth:8 (),
            Ax_models.Resnet.input_shape ~batch:1 );
        ];
    if do_mults then
      List.iter
        (fun e -> add e.Ax_arith.Registry.name (Check.registry_entry e) [])
        (Ax_arith.Registry.all ());
    if do_conc then
      List.iter
        (fun (name, ds) -> add name ds [])
        (Ax_analysis.Conc_check.suite () @ Ax_serve.Conc_scenarios.suite ());
    List.iter
      (fun path ->
        let g = Ax_nn.Model_io.load path in
        let ds, layers = Check.graph ~input g in
        add path ds layers)
      models;
    List.iter
      (fun path ->
        let lut = Ax_arith.Lut.load path in
        add path
          (Ax_analysis.Quant_check.check_lut ~location:(D.Artefact path) lut)
          [])
      luts;
    List.iter
      (fun name ->
        add name (Check.registry_entry (Ax_arith.Registry.find_exn name)) [])
      mults;
    let units = List.rev !units in
    let all_findings = List.concat_map (fun (_, ds, _) -> ds) units in
    (match json_out with
    | Some path ->
      let json =
        Ax_obs.Json.Obj
          [
            ( "units",
              Ax_obs.Json.List
                (List.map
                   (fun (name, ds, layers) ->
                     Ax_obs.Json.Obj
                       [
                         ("name", Ax_obs.Json.String name);
                         ("report", D.to_json ds);
                         ( "headroom",
                           Ax_analysis.Quant_check.layers_to_json layers );
                       ])
                   units) );
            ( "errors",
              Ax_obs.Json.Int (List.length (D.errors all_findings)) );
          ]
      in
      let text = Ax_obs.Json.to_string json in
      if path = "-" then print_endline text else write_file path text
    | None ->
      List.iter
        (fun (name, ds, layers) ->
          (match ds with
          | [] -> Format.printf "%-28s ok@." name
          | ds ->
            Format.printf "%-28s@." name;
            List.iter (fun d -> Format.printf "  %a@." D.pp d) (D.sort ds));
          if headroom && layers <> [] then
            Ax_analysis.Quant_check.pp_headroom Format.std_formatter layers)
        units;
      let count sel = List.length (sel all_findings) in
      Format.printf "%d unit(s): %d error(s), %d warning(s)@."
        (List.length units) (count D.errors) (count D.warnings));
    if D.has_errors all_findings then exit 1
  in
  let models =
    Arg.(
      value & opt_all string []
      & info [ "model" ] ~docv:"FILE" ~doc:"Check a serialized model file.")
  in
  let luts =
    Arg.(
      value & opt_all string []
      & info [ "lut" ] ~docv:"FILE" ~doc:"Check a LUT file.")
  in
  let mults =
    Arg.(
      value & opt_all string []
      & info [ "multiplier-name" ] ~docv:"NAME"
          ~doc:"Check one registry multiplier (repeatable).")
  in
  let suite =
    Arg.(
      value & opt string "all"
      & info [ "suite" ]
          ~doc:
            "With no explicit unit: which built-in suite to run — \
             $(b,models), $(b,multipliers), $(b,concurrency) (lock \
             discipline, race detection and schedule exploration over \
             the pool and daemon) or $(b,all) (the static suites: \
             models + multipliers).")
  in
  let input =
    Arg.(
      value & opt string "1,32,32,3"
      & info [ "input" ] ~docv:"N,H,W,C"
          ~doc:"Input shape for shape inference over --model files.")
  in
  let headroom =
    Arg.(
      value & flag
      & info [ "headroom" ]
          ~doc:"Print the per-layer accumulator headroom table.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as JSON to $(docv) (\"-\" for stdout).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static verification: graph structure and Fig. 1 wiring, \
          quantization/accumulator soundness, netlist-vs-LUT equivalence. \
          Exits 1 on error-severity findings.")
    Term.(
      const run $ models $ luts $ mults $ suite $ multiplier_term $ input
      $ headroom $ json_out)

let resilience_cmd =
  let run net depth multiplier lut_file repair_with target bits sites trials
      rates images bit seed domains csv json_file quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let domains = resolve_domains domains in
    (match domains with
    | Some d -> Ax_pool.Pool.set_default_size d
    | None -> ());
    let graph, dataset =
      match net with
      | "lenet" ->
        (Ax_models.Lenet.build (), Ax_data.Mnist.generate ~n:images ())
      | "resnet" ->
        (Ax_models.Resnet.build ~depth (), Ax_data.Cifar.generate ~n:images ())
      | "mobilenet" ->
        (Ax_models.Mobilenet.build (), Ax_data.Cifar.generate ~n:images ())
      | other ->
        failwith
          (Printf.sprintf "unknown net %s (lenet, resnet or mobilenet)" other)
    in
    let lut =
      match lut_file with
      | None -> Tfapprox.Emulator.lut_of_multiplier multiplier
      | Some path -> (
        match Ax_resilience.Artefact.load_lut ?repair_with path with
        | Ok (lut, Ax_resilience.Artefact.Intact) ->
          Log.info
            ~fields:[ ("file", Ax_obs.Json.String path) ]
            (Printf.sprintf "loaded %s (checksum ok)" path);
          lut
        | Ok (lut, Ax_resilience.Artefact.Repaired _) ->
          (* the repair itself already warned on stderr *)
          lut
        (* a corrupt artefact is a runtime failure, not a usage error *)
        | Error e -> raise (Ax_arith.Load_error.Error e))
    in
    let graph = Tfapprox.Emulator.approximate_model ~lut ?domains graph in
    let trial_list =
      match target with
      | "lut" -> (
        match rates with
        | Some r ->
          Ax_resilience.Campaign.lut_rate_trials ~seed
            ~rates:(float_list ~what:"--rates" r)
        | None ->
          Ax_resilience.Campaign.lut_bit_trials ~seed ~sites
            ~bits:(int_list ~what:"--bits" bits) ())
      | "weights" ->
        Ax_resilience.Campaign.weight_trials ~seed ~trials ~sites ~bit graph
      | "activations" ->
        Ax_resilience.Campaign.activation_trials ~seed ~trials ~sites ~bit
          graph
      | other ->
        failwith
          (Printf.sprintf "unknown target %s (lut, weights or activations)"
             other)
    in
    let trial_list = Ax_resilience.Campaign.zero_fault_trial :: trial_list in
    let metrics = Ax_obs.Metrics.create () in
    let report =
      Ax_resilience.Campaign.run ~metrics ?domains
        { Ax_resilience.Campaign.graph; dataset;
          backend = Tfapprox.Emulator.Cpu_gemm }
        ~trials:trial_list
    in
    if csv then print_string (Ax_resilience.Campaign.csv report)
    else Format.printf "%a@." Ax_resilience.Campaign.pp report;
    match json_file with
    | None -> ()
    | Some path ->
      let text =
        Ax_obs.Json.to_string (Ax_resilience.Campaign.to_json report)
      in
      if path = "-" then print_endline text
      else begin
        write_file path text;
        Log.info (Printf.sprintf "wrote %s" path)
      end
  in
  let net =
    Arg.(
      value & opt string "resnet"
      & info [ "net" ] ~doc:"Model family: lenet, resnet or mobilenet.")
  in
  let depth =
    Arg.(value & opt int 8 & info [ "depth" ] ~doc:"ResNet depth.")
  in
  let lut_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "lut" ] ~docv:"FILE"
          ~doc:
            "Load the multiplier truth table from an AXLUT1 artefact \
             instead of tabulating $(b,--multiplier); corruption is \
             detected by checksum (see $(b,--repair-with)).")
  in
  let repair_with =
    Arg.(
      value
      & opt (some string) None
      & info [ "repair-with" ] ~docv:"MULTIPLIER"
          ~doc:
            "On a corrupt $(b,--lut) artefact, re-tabulate this registry \
             multiplier and continue instead of failing.")
  in
  let target =
    Arg.(
      value & opt string "lut"
      & info [ "target" ]
          ~doc:
            "Fault target: lut (texture memory), weights (parameter \
             memory) or activations (inter-layer buffers).")
  in
  let bits =
    Arg.(
      value & opt string "0,4,8,12,14,15"
      & info [ "bits" ] ~docv:"B1,B2,..."
          ~doc:"LUT product-bit positions to sweep (target lut).")
  in
  let sites =
    Arg.(
      value & opt int 32
      & info [ "sites" ] ~doc:"Fault sites injected per trial.")
  in
  let trials =
    Arg.(
      value & opt int 3
      & info [ "trials" ]
          ~doc:"Repetitions for weight/activation campaigns.")
  in
  let rates =
    Arg.(
      value
      & opt (some string) None
      & info [ "rates" ] ~docv:"R1,R2,..."
          ~doc:
            "Switch the lut target to a rate sweep: per-bit upset \
             probabilities, e.g. 1e-6,1e-5,1e-4.")
  in
  let images =
    Arg.(value & opt int 16 & info [ "images" ] ~doc:"Evaluation images.")
  in
  let bit =
    Arg.(
      value & opt int 23
      & info [ "bit" ]
          ~doc:
            "float32 bit position for weight/activation faults (23 = \
             lowest exponent bit).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as JSON to $(docv) (\"-\" for stdout).")
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Seeded fault-injection campaign (SEU/stuck-at) over LUT, weight \
          or activation memory")
    Term.(
      const run $ net $ depth $ multiplier_term $ lut_file $ repair_with
      $ target $ bits $ sites $ trials $ rates $ images $ bit $ seed
      $ domains_term $ csv_term $ json_file $ quiet_term)

let serve_cmd =
  let run listen models backend domains queue_capacity max_batch linger_ms
      retry_after_ms max_connections idle_timeout trace_file metrics_file
      quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let address = Ax_serve.Server.parse_address listen in
    let backend = backend_of_string backend in
    let domains = Option.value ~default:1 (resolve_domains domains) in
    Ax_pool.Pool.set_default_size domains;
    if queue_capacity <= 0 then failwith "--queue-capacity: expected > 0";
    if max_batch <= 0 then failwith "--max-batch: expected > 0";
    if linger_ms < 0. then failwith "--linger-ms: expected >= 0";
    if retry_after_ms < 0 then failwith "--retry-after-ms: expected >= 0";
    if max_connections <= 0 then failwith "--max-connections: expected > 0";
    if idle_timeout < 0. then failwith "--idle-timeout: expected >= 0";
    let specs =
      List.map Ax_serve.Store.parse_spec
        (match models with
        | [] -> [ "resnet8=resnet8+mul8u_trunc8" ]
        | ms -> ms)
    in
    let metrics = Ax_obs.Metrics.create () in
    let tracer = Option.map (fun _ -> Ax_obs.Trace.create ()) trace_file in
    let store = Ax_serve.Store.load ~metrics ~domains specs in
    let config =
      {
        (Ax_serve.Server.default_config ~store ~address ()) with
        backend;
        domains;
        queue_capacity;
        max_batch;
        linger = linger_ms /. 1000.;
        retry_after_ms;
        max_connections;
        idle_timeout;
        metrics;
        trace = tracer;
      }
    in
    let server = Ax_serve.Server.start config in
    List.iter
      (fun s ->
        Sys.set_signal s
          (Sys.Signal_handle (fun _ -> Ax_serve.Server.request_stop server)))
      [ Sys.sigint; Sys.sigterm ];
    (* parseable by scripts: resolves an ephemeral tcp port *)
    Printf.printf "listening on %s\n%!"
      (Ax_serve.Server.address_to_string
         (Ax_serve.Server.bound_address server));
    Ax_serve.Server.wait server;
    Option.iter (fun t -> dump_trace ~metrics t trace_file) tracer;
    dump_metrics metrics metrics_file
  in
  let listen =
    Arg.(
      value
      & opt string "unix:/tmp/tfapprox.sock"
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen address: unix:PATH, tcp:HOST:PORT (port 0 binds an \
             ephemeral port, echoed on stdout) or a bare socket path.")
  in
  let models =
    Arg.(
      value & opt_all string []
      & info [ "model" ] ~docv:"SPEC"
          ~doc:
            "Model to serve (repeatable): NAME=ARCH[+MULTIPLIER][\\@LUTFILE] \
             with ARCH one of lenet, mobilenet, resnetD — or \
             NAME=FILE.axmdl[\\@HxWxC] (the .axmdl format stores no input \
             geometry; without \\@HxWxC the 32x32x3 CIFAR default is \
             assumed and verified at load).  Defaults to \
             resnet8=resnet8+mul8u_trunc8.")
  in
  let backend =
    Arg.(
      value & opt string "gemm"
      & info [ "backend" ] ~doc:"accurate, direct or gemm.")
  in
  let queue_capacity =
    Arg.(
      value & opt int 64
      & info [ "queue-capacity" ] ~docv:"N"
          ~doc:
            "Admission queue bound; requests beyond it are refused with a \
             typed Overloaded error and a retry hint.")
  in
  let max_batch =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Requests coalesced into one scheduled batch.")
  in
  let linger_ms =
    Arg.(
      value & opt float 2.
      & info [ "linger-ms" ] ~docv:"MS"
          ~doc:
            "How long the scheduler lets concurrent requests coalesce \
             before forming a batch.")
  in
  let retry_after_ms =
    Arg.(
      value & opt int 50
      & info [ "retry-after-ms" ] ~docv:"MS"
          ~doc:"Hint returned with Overloaded refusals.")
  in
  let max_connections =
    Arg.(
      value & opt int 256
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent connection cap; accepts past it are refused with \
             a typed Overloaded frame and closed without spawning a \
             thread.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 300.
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a connection that delivers no complete frame for this \
             long (a stalled or silent peer must not pin a server thread \
             forever); 0 disables.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived inference daemon: batches concurrent requests over a \
          bounded admission queue; corrupt artefacts degrade single models, \
          malformed frames are typed per-connection errors")
    Term.(
      const run $ listen $ models $ backend $ domains_term $ queue_capacity
      $ max_batch $ linger_ms $ retry_after_ms $ max_connections
      $ idle_timeout $ trace_file_term $ metrics_file_term $ quiet_term)

let client_cmd =
  let run action connect model input_kind images seed count deadline_ms
      retries check_local backend timeout quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let address = Ax_serve.Server.parse_address connect in
    let connect () = Ax_serve.Client.connect ~timeout address in
    let fail e = runtime_error (Ax_serve.Client.error_to_string e) in
    match action with
    | "ping" -> (
      let c = connect () in
      match Ax_serve.Client.ping c with
      | Ok () ->
        print_endline "pong";
        Ax_serve.Client.close c
      | Error e -> fail e)
    | "models" -> (
      let c = connect () in
      match Ax_serve.Client.list_models c with
      | Ok models ->
        List.iter
          (fun (name, st) ->
            match st with
            | `Ready -> Printf.printf "%-24s ready\n" name
            | `Unavailable reason ->
              Printf.printf "%-24s unavailable: %s\n" name reason)
          models;
        Ax_serve.Client.close c
      | Error e -> fail e)
    | "metrics" -> (
      let c = connect () in
      match Ax_serve.Client.metrics c with
      | Ok text ->
        print_string text;
        Ax_serve.Client.close c
      | Error e -> fail e)
    | "shutdown" -> (
      let c = connect () in
      match Ax_serve.Client.shutdown c with
      | Ok () ->
        print_endline "daemon stopping";
        Ax_serve.Client.close c
      | Error e -> fail e)
    | "garbage" -> (
      (* Containment probe: pour random bytes down one connection, then
         prove the daemon is still alive from a fresh one. *)
      let c = connect () in
      let st = Random.State.make [| seed; 0x6a72 |] in
      let junk =
        Bytes.init 512 (fun _ -> Char.chr (Random.State.int st 256))
      in
      Ax_serve.Client.send_raw c junk;
      (match Ax_serve.Client.read_response c with
      | _ -> ()
      | exception _ -> ());
      Ax_serve.Client.close c;
      let c2 = connect () in
      match Ax_serve.Client.ping c2 with
      | Ok () ->
        print_endline "daemon survived garbage";
        Ax_serve.Client.close c2
      | Error e -> fail e)
    | "infer" ->
      let data =
        match input_kind with
        | "cifar" ->
          (Ax_data.Cifar.generate ~seed ~n:images ()).Ax_data.Cifar.images
        | "mnist" ->
          (Ax_data.Mnist.generate ~seed ~n:images ()).Ax_data.Mnist.images
        | other ->
          failwith
            (Printf.sprintf "unknown input kind %s (cifar or mnist)" other)
      in
      let c = connect () in
      let infer_once id =
        let rec attempt tries =
          match Ax_serve.Client.infer c ~id ?deadline_ms ~model data with
          | Ok classes -> classes
          | Error
              (Ax_serve.Client.Refused
                { code = Ax_serve.Protocol.Overloaded; retry_after_ms; _ })
            when tries < retries ->
            (* same request id on the wire: inference is stateless, so
               the retry is idempotent by construction *)
            Unix.sleepf (float_of_int (max 1 retry_after_ms) /. 1000.);
            attempt (tries + 1)
          | Error e -> fail e
        in
        attempt 0
      in
      let first = infer_once 0 in
      for id = 1 to count - 1 do
        if infer_once id <> first then
          runtime_error "non-deterministic responses across repeats"
      done;
      Ax_serve.Client.close c;
      print_endline
        (String.concat " " (Array.to_list (Array.map string_of_int first)));
      (match check_local with
      | None -> ()
      | Some spec_text -> (
        let spec = Ax_serve.Store.parse_spec spec_text in
        let store = Ax_serve.Store.load ~domains:1 [ spec ] in
        match Ax_serve.Store.find store spec.Ax_serve.Store.name with
        | Some { status = Ax_serve.Store.Ready ready; _ } ->
          let local =
            Tfapprox.Emulator.predictions ~verify:false ~domains:1
              ready.Ax_serve.Store.graph
              ~backend:(backend_of_string backend)
              data
          in
          if local = first then
            print_endline "check-local: bit-identical to one-shot emulator"
          else
            runtime_error
              "daemon predictions differ from the local one-shot run"
        | Some { status = Ax_serve.Store.Unavailable reason; _ } ->
          runtime_error ("check-local model unavailable: " ^ reason)
        | None -> assert false))
    | other ->
      failwith
        (Printf.sprintf
           "unknown action %s (ping, models, metrics, infer, garbage or \
            shutdown)"
           other)
  in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"ping, models, metrics, infer, garbage or shutdown.")
  in
  let connect =
    Arg.(
      value
      & opt string "unix:/tmp/tfapprox.sock"
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Daemon address: unix:PATH, tcp:HOST:PORT or a socket path.")
  in
  let model =
    Arg.(
      value & opt string "resnet8"
      & info [ "model" ] ~docv:"NAME" ~doc:"Served model name for infer.")
  in
  let input_kind =
    Arg.(
      value & opt string "cifar"
      & info [ "input" ] ~doc:"Generated request images: cifar or mnist.")
  in
  let images =
    Arg.(
      value & opt int 1
      & info [ "images" ] ~doc:"Images per inference request.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Seed for generated images / garbage bytes.")
  in
  let count =
    Arg.(
      value & opt int 1
      & info [ "count" ]
          ~doc:
            "Repeat the identical infer request this many times and verify \
             the responses agree.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline; expired requests are answered \
             Deadline_exceeded at the batch boundary, never scheduled.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ]
          ~doc:
            "Idempotent retries on a typed Overloaded refusal, sleeping \
             the server's retry hint between attempts.")
  in
  let check_local =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-local" ] ~docv:"SPEC"
          ~doc:
            "Load the same model spec in-process and verify the daemon's \
             predictions are bit-identical to a one-shot emulator run; \
             exits 1 on mismatch.")
  in
  let backend =
    Arg.(
      value & opt string "gemm"
      & info [ "backend" ]
          ~doc:"Backend for the $(b,--check-local) run: accurate, direct \
                or gemm.")
  in
  let timeout =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Socket receive timeout.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running tfapprox serve daemon over the length-prefixed \
          binary protocol")
    Term.(
      const run $ action $ connect $ model $ input_kind $ images $ seed
      $ count $ deadline_ms $ retries $ check_local $ backend $ timeout
      $ quiet_term)

let explore_cmd =
  let module Search = Ax_explore.Search in
  let run seed generations population budget images model mutations domains
      json_out csv_out quiet =
    apply_quiet quiet;
    guarded @@ fun () ->
    let model = Search.model_of_string model in
    let domains = resolve_domains domains in
    (match domains with
    | Some d -> Ax_pool.Pool.set_default_size d
    | None -> ());
    let config =
      {
        Search.seed;
        generations;
        population;
        budget;
        images;
        model;
        mutations;
        max_domains = domains;
      }
    in
    let result = Search.run config in
    let emit out text =
      match out with
      | None -> ()
      | Some "-" -> print_string text
      | Some path -> write_file path text
    in
    emit json_out (Search.front_json_string result);
    emit csv_out (Search.front_csv_string result);
    Format.printf "%a@." Search.pp_front result;
    (* A search that certified nothing has no usable outcome: that is a
       runtime failure of the run, not an operator typo. *)
    if result.Search.front = [] then
      runtime_error "search produced an empty Pareto front"
  in
  let seed =
    Arg.(
      value & opt int Search.default_config.Search.seed
      & info [ "seed" ] ~doc:"Mutation RNG seed; the run is a pure \
                              function of the flags and this seed.")
  in
  let generations =
    Arg.(
      value & opt int Search.default_config.Search.generations
      & info [ "generations" ]
          ~doc:"Mutation rounds after the seeded generation 0.")
  in
  let population =
    Arg.(
      value & opt int Search.default_config.Search.population
      & info [ "population" ] ~doc:"Candidates per generation.")
  in
  let budget =
    Arg.(
      value & opt int 0
      & info [ "budget" ]
          ~doc:
            "Cap on candidate evaluations across the whole run; 0 means \
             population * (generations + 1).")
  in
  let images =
    Arg.(
      value & opt int Search.default_config.Search.images
      & info [ "images" ] ~doc:"Dataset size for the accuracy objective.")
  in
  let model =
    Arg.(
      value & opt string (Search.model_name Search.default_config.Search.model)
      & info [ "model" ] ~doc:"Scoring network: resnet8 or lenet.")
  in
  let mutations =
    Arg.(
      value & opt int Search.default_config.Search.mutations
      & info [ "mutations" ] ~doc:"Mutation operations applied per child.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the Pareto front as deterministic JSON to $(docv) \
             (\"-\" for stdout); byte-identical across reruns and \
             $(b,--domains) settings.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the Pareto front as CSV to $(docv) (\"-\" for stdout).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Seeded evolutionary search over certified 8x8 multiplier \
          netlists, Pareto-optimal in accuracy vs relative MAC energy")
    Term.(
      const run $ seed $ generations $ population $ budget $ images $ model
      $ mutations $ domains_term $ json_out $ csv_out $ quiet_term)

let () =
  Log.init_from_env ();
  let doc = "TFApprox-style emulation of approximate DNN accelerators" in
  let info = Cmd.info "tfapprox" ~version:Tfapprox.Version.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd; fig2_cmd; sweep_cmd; multipliers_cmd; verilog_cmd;
            lut_cmd; explore_cmd; model_cmd; analyze_cmd;
            trace_cmd; check_cmd; resilience_cmd; serve_cmd; client_cmd;
          ]))
