(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe              # everything (a few minutes)
     dune exec bench/main.exe -- table1    # Table I only
     dune exec bench/main.exe -- fig2      # Fig. 2 only
     dune exec bench/main.exe -- lut-independence
     dune exec bench/main.exe -- cache-ablation
     dune exec bench/main.exe -- chunk-ablation
     dune exec bench/main.exe -- accumulator-ablation
     dune exec bench/main.exe -- workloads
     dune exec bench/main.exe -- round-modes
     dune exec bench/main.exe -- per-layer
     dune exec bench/main.exe -- device-sweep
     dune exec bench/main.exe -- serve   # daemon torture run
     dune exec bench/main.exe -- gemm    # alloc/obs/conc/scaling gates
     dune exec bench/main.exe -- resilience  # LUT-bit fault sensitivity

   CPU columns are measured on this host over a small image sample and
   scaled (reported); GPU columns come from the ax_gpusim execution
   model.  See EXPERIMENTS.md for the paper-vs-ours comparison.
   End-to-end throughput, latency and the per-layer ledger are measured
   by bench/e2e, whose compare.exe is the repo's performance gate. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Axconv = Ax_nn.Axconv
module Registry = Ax_arith.Registry
module Device = Ax_gpusim.Device
module Cost = Ax_gpusim.Cost
module Resnet = Ax_models.Resnet
module Cifar = Ax_data.Cifar
module Experiments = Tfapprox.Experiments
module Report = Tfapprox.Report

let images_measured =
  match Sys.getenv_opt "TFAPPROX_BENCH_IMAGES" with
  | Some s -> int_of_string s
  | None -> 2

let section title = Format.printf "@.==== %s ====@.@." title

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* ------------------------------------------------------------------ *)
(* E1: Table I                                                         *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  section "E1: Table I (CPU measured & scaled to 10k images; GPU modelled)";
  Format.printf "CPU sample: %d images per network, scaled x%d@.@."
    images_measured
    (10_000 / images_measured);
  let rows = Experiments.table1 ~images_measured () in
  Report.print_table1 Format.std_formatter rows;
  (* The paper's headline shape: speedup grows with depth. *)
  let speedups = List.map (fun r -> r.Experiments.speedup_approx) rows in
  let monotone =
    let rec go = function
      | a :: (b :: _ as rest) -> a <= b +. (0.15 *. b) && go rest
      | [ _ ] | [] -> true
    in
    go speedups
  in
  Format.printf "speedup grows with depth (paper: 107x -> 213x): %b@."
    monotone

(* ------------------------------------------------------------------ *)
(* E2: Fig. 2                                                          *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  section "E2: Fig. 2 time distribution (CPU measured, GPU modelled)";
  let rows = Experiments.fig2 ~images_measured () in
  Report.print_fig2 Format.std_formatter rows;
  Format.printf
    "paper, ResNet-62: CPU 0.8/64/7/28%%, GPU 10/20/26/43%% (init/quant/LUT/rest)@."

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Best wall-clock time of [n] runs of [f]: the minimum is the run least
   disturbed by the rest of the host. *)
let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* One small conv (16x16x8 -> 16, 3x3 Same): the micro row of [-- gemm]
   and the E5 workload. *)
let conv_inputs () =
  let input = Tensor.create (Shape.make ~n:1 ~h:16 ~w:16 ~c:8) in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create 3) input;
  let filter = Filter.create ~kh:3 ~kw:3 ~in_c:8 ~out_c:16 in
  Filter.fill_he_normal (Rng.create 4) filter;
  let input_range = Ax_quant.Range.of_tensor input in
  let fmin, fmax = Filter.min_max filter in
  let filter_range = Ax_quant.Range.make ~min:fmin ~max:fmax in
  (input, filter, input_range, filter_range)

let micro_macs = 16 * 16 * 16 * 72

(* ------------------------------------------------------------------ *)
(* E5: LUT-content independence                                        *)
(* ------------------------------------------------------------------ *)

let run_lut_independence () =
  section
    "E5: \"The content of the LUT does not have any impact on the execution time\"";
  let input, filter, input_range, filter_range = conv_inputs () in
  Format.printf "%-24s %12s %10s   (best of 200 runs)@." "multiplier"
    "us/conv" "ns/MAC";
  List.iter
    (fun m ->
      let config = Axconv.make_config (Registry.lut (Registry.find_exn m)) in
      let conv () =
        ignore
          (Axconv.conv ~config ~input ~input_range ~filter ~filter_range
             ~spec:Conv_spec.default ())
      in
      conv ();
      let best = best_of 200 conv in
      Format.printf "%-24s %12.1f %10.2f@." m (1e6 *. best)
        (best *. 1e9 /. float_of_int micro_macs))
    [ "mul8u_exact"; "mul8u_trunc8"; "mul8u_mitchell"; "mul8u_kulkarni" ];
  Format.printf
    "@.identical within noise = the claim holds: time depends on geometry,@.";
  Format.printf "not on which truth table the texture memory holds.@."

(* ------------------------------------------------------------------ *)
(* A1: texture-cache ablation                                          *)
(* ------------------------------------------------------------------ *)

let run_cache_ablation () =
  section "A1: texture-cache geometry vs LUT hit rate (ResNet-20 codes)";
  let graph = Resnet.build ~depth:20 () in
  let sample = (Cifar.generate ~n:2 ()).Cifar.images in
  let base = Device.gtx_1080 in
  Format.printf "%-14s %-8s %-6s %10s %16s@." "cache" "line" "ways"
    "hit rate" "LUT time (10k)";
  let workloads =
    Cost.workloads_of_graph graph
      ~input:(Resnet.input_shape ~batch:1)
      ~images:10_000
  in
  List.iter
    (fun (size_kb, line, ways) ->
      let device =
        {
          base with
          Device.tex_cache_bytes = size_kb * 1024;
          tex_cache_line_bytes = line;
          tex_cache_ways = ways;
        }
      in
      let rate = Experiments.measured_lut_hit_rate ~device ~graph ~sample () in
      let phases =
        Cost.approx_network device ~lut_hit_rate:rate ~chunk_size:250
          workloads
      in
      Format.printf "%10d kB %5d B %6d %9.1f%% %13.2f s@." size_kb line ways
        (100. *. rate) phases.Cost.lut_s)
    [
      (0, 32, 1); (2, 32, 4); (8, 32, 4); (24, 32, 4); (48, 32, 4);
      (48, 64, 4); (48, 32, 8); (128, 32, 4); (256, 32, 4);
    ];
  Format.printf
    "@.0 kB = no texture cache: every fetch pays the miss penalty — the@.";
  Format.printf
    "paper's motivation for routing the LUT through texture memory.@."

(* ------------------------------------------------------------------ *)
(* A2: chunk-size ablation                                             *)
(* ------------------------------------------------------------------ *)

let run_chunk_ablation () =
  section "A2: Algorithm 1 chunk size (ResNet-20, measured CPU + model)";
  let graph = Resnet.build ~depth:20 () in
  let images = max 4 images_measured in
  let data = (Cifar.generate ~n:images ()).Cifar.images in
  let workloads =
    Cost.workloads_of_graph graph
      ~input:(Resnet.input_shape ~batch:1)
      ~images:10_000
  in
  Format.printf "%10s %16s %16s %18s@." "chunk" "cpu-gemm (meas.)"
    "gpu model" "peak patch bytes";
  List.iter
    (fun chunk_size ->
      let approx =
        Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8"
          ~chunk_size graph
      in
      let start = Unix.gettimeofday () in
      ignore
        (Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm approx data);
      let measured = Unix.gettimeofday () -. start in
      let modelled =
        Cost.total (Cost.approx_network Device.gtx_1080 ~chunk_size workloads)
      in
      (* Largest per-chunk patch matrix across layers. *)
      let peak_bytes =
        List.fold_left
          (fun acc w ->
            max acc (min chunk_size 10_000 * w.Cost.rows_per_image * w.Cost.taps))
          0 workloads
      in
      Format.printf "%10d %14.2f s %14.2f s %15.1f MB@." chunk_size measured
        modelled
        (float_of_int peak_bytes /. 1e6))
    [ 1; 25; 125; 250; 500; 1000 ];
  Format.printf
    "@.results are bit-identical across chunk sizes (asserted in the test@.";
  Format.printf
    "suite); chunking trades patch-matrix memory against launch overhead.@."

(* ------------------------------------------------------------------ *)
(* Extension: per-layer timeline                                       *)
(* ------------------------------------------------------------------ *)

let run_per_layer () =
  section "Extension: per-layer modelled time (ResNet-8, 10k images)";
  let graph = Resnet.build ~depth:8 () in
  let workloads =
    Cost.workloads_of_graph graph
      ~input:(Resnet.input_shape ~batch:1)
      ~images:10_000
  in
  Format.printf "%-24s %10s %10s %10s %10s@." "layer" "quant" "LUT" "rest"
    "total";
  List.iter
    (fun (label, p) ->
      Format.printf "%-24s %8.3f s %8.3f s %8.3f s %8.3f s@." label
        p.Cost.quantization_s p.Cost.lut_s p.Cost.other_s (Cost.total p))
    (Cost.per_layer Device.gtx_1080 ~chunk_size:250 workloads);
  Format.printf
    "@.early layers pay in quantization traffic (large activations),@.";
  Format.printf "late layers in LUT fetches (more channels per position).@."

(* ------------------------------------------------------------------ *)
(* Extension: round-mode ablation                                      *)
(* ------------------------------------------------------------------ *)

let run_round_modes () =
  section "Extension: rounding mode of the quantizer (exact LUT)";
  let input, filter, input_range, filter_range = conv_inputs () in
  let float_out =
    Ax_nn.Conv_float.gemm ~input ~filter ~spec:Conv_spec.default ()
  in
  let lut = Registry.lut (Registry.find_exn "mul8s_exact") in
  Format.printf "%-16s %18s@." "round mode" "max |err| vs float";
  List.iter
    (fun round_mode ->
      let out =
        Axconv.conv
          ~config:(Axconv.make_config ~round_mode lut)
          ~input ~input_range ~filter ~filter_range ~spec:Conv_spec.default
          ()
      in
      Format.printf "%-16s %18.4f@."
        (Ax_quant.Round.to_string round_mode)
        (Tensor.max_abs_diff float_out out))
    Ax_quant.Round.[ Nearest_even; Nearest_away; Toward_zero; Stochastic ];
  Format.printf
    "@.the paper's \"requested round mode\" input: nearest flavours tie,@.";
  Format.printf "truncation costs roughly 2x the quantization noise.@."

(* ------------------------------------------------------------------ *)
(* Extension: other workload families                                  *)
(* ------------------------------------------------------------------ *)

let run_workloads () =
  section
    "Extension: other workload families (GPU modelled, 10k images)";
  Format.printf "%-22s %10s %14s %14s@." "model" "MACs/img" "GPU accurate"
    "GPU approximate";
  let entry ~label ~graph ~input =
    let macs = Ax_nn.Graph.total_macs graph ~input in
    let accurate, _ =
      Tfapprox.Emulator.estimate_gpu_time ~graph ~input ~images:10_000 ()
    in
    let approx_graph =
      Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" graph
    in
    let approx, _ =
      Tfapprox.Emulator.estimate_gpu_time ~graph:approx_graph ~input
        ~images:10_000 ()
    in
    let seconds = function
      | `Accurate p | `Approximate p -> Cost.total p
    in
    Format.printf "%-22s %9.1fM %12.2f s %12.2f s@." label
      (float_of_int macs /. 1e6)
      (seconds accurate) (seconds approx)
  in
  entry ~label:"ResNet-20"
    ~graph:(Resnet.build ~depth:20 ())
    ~input:(Resnet.input_shape ~batch:1);
  entry ~label:"MobileNet (w16, b4)"
    ~graph:(Ax_models.Mobilenet.build ())
    ~input:(Ax_models.Mobilenet.input_shape ~batch:1);
  entry ~label:"LeNet (28x28x1)"
    ~graph:(Ax_models.Lenet.build ())
    ~input:(Ax_models.Lenet.input_shape ~batch:1);
  Format.printf
    "@.depthwise-separable and 5x5/maxpool networks run through the same@.";
  Format.printf "AxConv2D / AxDepthwiseConv2D pipeline and cost model.@."

(* ------------------------------------------------------------------ *)
(* A6: accumulator-width ablation                                      *)
(* ------------------------------------------------------------------ *)

let run_accumulator_ablation () =
  section
    "A6: accumulator width (paper: 32-bit unit; narrower saturating/wrapping)";
  let input, filter, input_range, filter_range = conv_inputs () in
  let lut = Registry.lut (Registry.find_exn "mul8s_exact") in
  let reference =
    Axconv.conv
      ~config:(Axconv.make_config lut)
      ~input ~input_range ~filter ~filter_range ~spec:Conv_spec.default ()
  in
  Format.printf "%-10s %18s %18s@." "width" "max |err| (sat)" "max |err| (wrap)";
  List.iter
    (fun width ->
      let err accumulator =
        let out =
          Axconv.conv
            ~config:(Axconv.make_config ~accumulator lut)
            ~input ~input_range ~filter ~filter_range
            ~spec:Conv_spec.default ()
        in
        Tensor.max_abs_diff reference out
      in
      Format.printf "%-10d %18.4f %18.4f@." width
        (err (Ax_nn.Accumulator.Saturating width))
        (err (Ax_nn.Accumulator.Wrapping width)))
    [ 10; 12; 14; 16; 20; 24; 32 ];
  Format.printf
    "@.32-bit never overflows at these layer sizes (the paper's design@.";
  Format.printf
    "point); saturation degrades gracefully, wrap-around does not.@."

(* ------------------------------------------------------------------ *)
(* GEMM: hot-path throughput + allocation discipline                   *)
(* ------------------------------------------------------------------ *)

(* Documented gate: steady-state per-chunk allocation of the AxConv2D
   GEMM path, in heap words (Gc.allocated_bytes delta, which covers
   both the minor heap and buffers large enough to go straight to the
   major heap).  The scratch arena owns the mp/sp/acc buffers, so a
   warmed-up chunk only allocates bookkeeping (a tuple, a couple of
   closures) — 512 words is two orders of magnitude of headroom over
   that, while any reintroduced per-chunk buffer (the smallest patch
   matrix is tens of kilobytes) blows straight past it.  CI runs this
   section in smoke mode and fails the leg if the gate trips. *)
let alloc_words_per_chunk_threshold = 512

(* Documented gates (DESIGN.md §5d, §5g): enabled profiling+tracing, and
   the off-mode Ax_conc shim passthrough, must each cost under 2% of the
   ResNet-8 run. *)
let obs_overhead_threshold_pct = 2.0
let conc_overhead_threshold_pct = 2.0

let run_gemm () =
  section "GEMM: ApproxGEMM hot path (ResNet-8 cpu-gemm + allocation gate)";
  let images = max images_measured 4 in
  let graph = Resnet.build ~depth:8 () in
  let data = (Cifar.generate ~n:images ()).Cifar.images in
  (* Throughput: un-sharded run; [domains] is the row-level split inside
     the GEMM (config.domains), the axis the tiled kernel parallelizes. *)
  let time_run ~domains =
    let approx =
      Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" ~domains
        graph
    in
    let backend = Tfapprox.Emulator.Cpu_gemm in
    ignore (Tfapprox.Emulator.run ~backend approx data);
    let best = ref infinity and out = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let o = Tfapprox.Emulator.run ~backend approx data in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      out := Some o
    done;
    (!best, Option.get !out)
  in
  let t1, out1 = time_run ~domains:1 in
  let t4, out4 = time_run ~domains:4 in
  let identical = Tensor.max_abs_diff out1 out4 = 0. in
  Format.printf "%-8s %12s %12s %10s@." "domains" "best time" "images/s"
    "bitwise";
  List.iter
    (fun (d, t) ->
      Format.printf "%-8d %10.1f ms %12.2f %10s@." d (1000. *. t)
        (float_of_int images /. t)
        (if identical then "ok" else "DIFFERS"))
    [ (1, t1); (4, t4) ];
  (* Micro: one small conv (16x16x8 -> 16, 3x3 Same), ns per LUT MAC. *)
  let input, filter, input_range, filter_range = conv_inputs () in
  let config =
    Axconv.make_config (Registry.lut (Registry.find_exn "mul8u_trunc8"))
  in
  let conv () =
    Axconv.conv ~config ~input ~input_range ~filter ~filter_range
      ~spec:Conv_spec.default ()
  in
  ignore (conv ());
  let micro_best = best_of 5 (fun () -> ignore (conv ())) in
  let ns_per_mac = micro_best *. 1e9 /. float_of_int micro_macs in
  Format.printf "@.micro: %.3f ms/conv, %.2f ns/MAC (%d LUT MACs)@."
    (1000. *. micro_best) ns_per_mac micro_macs;
  (* Domains-scaling gate: with chunk-level dynamic claiming the d4 run
     must not be slower than d1.  On single-core hosts (CI containers,
     this dev box) there is nothing to scale over, so the gate degrades
     to a logged warning instead of a hard failure. *)
  let cores = Domain.recommended_domain_count () in
  let scaling_skipped = cores < 2 in
  let scaling_ok = scaling_skipped || t4 <= t1 in
  if scaling_skipped then
    Format.printf
      "scaling gate: SKIPPED (recommended_domain_count %d < 2 — nothing to \
       scale over)@."
      cores
  else
    Format.printf "scaling gate: d4 %.2f img/s vs d1 %.2f img/s: %s@."
      (float_of_int images /. t4)
      (float_of_int images /. t1)
      (if scaling_ok then "ok" else "FAIL");
  (* Allocation gate: the same conv over 12 images at chunk_size:1 (12
     chunks) vs over 1 image (1 chunk).  The per-conv costs (filter
     quantization, output tensor, dequant constants) cancel in the
     subtraction, leaving 11 steady-state chunks' worth of allocation. *)
  let big = Tensor.create (Shape.make ~n:12 ~h:16 ~w:16 ~c:8) in
  Tensor.fill_uniform ~lo:(-1.) ~hi:1. (Rng.create 5) big;
  let small = Tensor.slice_batch big ~start:0 ~count:1 in
  let chunky =
    Axconv.make_config ~chunk_size:1
      (Registry.lut (Registry.find_exn "mul8u_trunc8"))
  in
  let conv_alloc input =
    let range = Ax_quant.Range.of_tensor input in
    ignore
      (Axconv.conv ~config:chunky ~input ~input_range:range ~filter
         ~filter_range ~spec:Conv_spec.default ());
    (* [Gc.allocated_bytes] only advances at minor collections, so flush
       before each read or the delta is quantized to whole minor heaps. *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    ignore
      (Axconv.conv ~config:chunky ~input ~input_range:range ~filter
         ~filter_range ~spec:Conv_spec.default ());
    Gc.minor ();
    Gc.allocated_bytes () -. before
  in
  let a1 = conv_alloc small in
  let a12 = conv_alloc big in
  let word = float_of_int (Sys.word_size / 8) in
  let per_chunk_words = (a12 -. a1) /. 11. /. word in
  let gate_ok = per_chunk_words <= float_of_int alloc_words_per_chunk_threshold in
  Format.printf
    "alloc: %.0f words/chunk steady-state (threshold %d): %s@."
    per_chunk_words alloc_words_per_chunk_threshold
    (if gate_ok then "ok" else "FAIL");
  (* Observability overhead gate: the same ResNet-8 run with a full
     profile (phases, histograms, spans) attached vs instrumentation
     compiled in but disabled (no profile).  Best-of-N per side inside
     each attempt, minimum overhead across attempts — both minimize the
     influence of scheduler noise, which easily exceeds the 2% budget on
     a busy CI host; a real per-event cost shows up in every attempt. *)
  let approx_plain =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" graph
  in
  let run_disabled () =
    ignore
      (Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm approx_plain
         data)
  in
  let run_enabled () =
    let profile =
      Ax_nn.Profile.create ~trace:(Ax_obs.Trace.create ()) ()
    in
    ignore
      (Tfapprox.Emulator.run ~profile ~backend:Tfapprox.Emulator.Cpu_gemm
         approx_plain data)
  in
  run_disabled ();
  run_enabled ();
  let overhead_pct = ref infinity in
  for _ = 1 to 3 do
    let off = best_of 3 run_disabled in
    let on = best_of 3 run_enabled in
    let pct = Float.max 0. (100. *. ((on /. off) -. 1.)) in
    if pct < !overhead_pct then overhead_pct := pct
  done;
  let obs_ok = !overhead_pct < obs_overhead_threshold_pct in
  Format.printf
    "obs overhead: %.2f%% enabled-vs-disabled (threshold %.1f%%): %s@."
    !overhead_pct obs_overhead_threshold_pct
    (if obs_ok then "ok" else "FAIL");
  (* Checked-wrapper overhead gate: the pool and daemon route every
     lock/condvar/atomic through the Ax_conc shims, whose off-mode path
     adds one atomic flag load per operation.  That cost is far below
     run-to-run noise on the full inference, so a direct off-vs-raw
     macro timing cannot resolve it; instead the gate (a) counts the
     workload's actual shim operations by running the same inference
     once under record mode, (b) microbenchmarks the per-operation
     passthrough delta (shim lock/unlock in off mode vs a raw Stdlib
     mutex), and (c) gates their product against the off-mode run time.
     Findings from the counting run are discarded ([reset], no
     [collect]) — flipping modes while pool workers idle inside an
     off-mode wait can produce bookkeeping artefacts, which is fine
     here because only the op count is of interest. *)
  (* The 4-domain GEMM split is the path that actually goes through the
     pool's checked locks; the 1-domain run stays inline and performs
     no shim operations at all. *)
  let approx_pool =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" ~domains:4
      graph
  in
  let run_pool () =
    ignore
      (Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm approx_pool
         data)
  in
  let saved_mode = Ax_conc.Conc.mode () in
  Ax_conc.Conc.set_mode Ax_conc.Conc.Off;
  let t_off = best_of 3 run_pool in
  Ax_conc.Conc.reset ();
  Ax_conc.Conc.set_mode Ax_conc.Conc.Record;
  run_pool ();
  let conc_ops = Ax_conc.Conc.ops () in
  Ax_conc.Conc.set_mode Ax_conc.Conc.Off;
  Ax_conc.Conc.reset ();
  let shim = Ax_conc.Mutex.create ~name:"bench.gate" () in
  let raw = Stdlib.Mutex.create () in
  let iters = 200_000 in
  let t_shim =
    best_of 3 (fun () ->
        for _ = 1 to iters do
          Ax_conc.Mutex.lock shim;
          Ax_conc.Mutex.unlock shim
        done)
  in
  let t_raw =
    best_of 3 (fun () ->
        for _ = 1 to iters do
          Stdlib.Mutex.lock raw;
          Stdlib.Mutex.unlock raw
        done)
  in
  Ax_conc.Conc.set_mode saved_mode;
  (* lock + unlock are two shim operations per iteration *)
  let per_op_s =
    Float.max 0. ((t_shim -. t_raw) /. float_of_int (2 * iters))
  in
  let conc_pct = 100. *. (float_of_int conc_ops *. per_op_s /. t_off) in
  let conc_ok = conc_pct < conc_overhead_threshold_pct in
  Format.printf
    "conc overhead: %d shim ops x %.1f ns passthrough = %.4f%% of the \
     off-mode run (threshold %.1f%%): %s@."
    conc_ops (per_op_s *. 1e9) conc_pct conc_overhead_threshold_pct
    (if conc_ok then "ok" else "FAIL");
  let open Ax_obs.Json in
  let row d t =
    Obj
      [
        ("domains", Int d);
        ("seconds", Float t);
        ("images_per_sec", Float (float_of_int images /. t));
      ]
  in
  write_file "BENCH_gemm.json"
    (to_string
       (Obj
          [
            ("bench", String "gemm");
            ("multiplier", String "mul8u_trunc8");
            ("network", String "resnet-8");
            ("images", Int images);
            ("throughput", List [ row 1 t1; row 4 t4 ]);
            ("bitwise_domains_1_vs_4", Bool identical);
            ( "scaling_gate",
              Obj
                [
                  ("recommended_domain_count", Int cores);
                  ("skipped", Bool scaling_skipped);
                  ("pass", Bool scaling_ok);
                ] );
            ( "micro",
              Obj
                [
                  ("macs", Int micro_macs);
                  ("seconds", Float micro_best);
                  ("ns_per_mac", Float ns_per_mac);
                ] );
            ( "alloc_gate",
              Obj
                [
                  ("steady_chunks", Int 11);
                  ("per_chunk_words", Float per_chunk_words);
                  ("threshold_words", Int alloc_words_per_chunk_threshold);
                  ("pass", Bool gate_ok);
                ] );
            ( "obs_overhead",
              Obj
                [
                  ("percent", Float !overhead_pct);
                  ("threshold_percent", Float obs_overhead_threshold_pct);
                  ("pass", Bool obs_ok);
                ] );
            ( "conc_overhead",
              Obj
                [
                  ("percent", Float conc_pct);
                  ("threshold_percent", Float conc_overhead_threshold_pct);
                  ("pass", Bool conc_ok);
                ] );
          ]));
  Format.printf "wrote BENCH_gemm.json@.";
  if not gate_ok then begin
    Format.eprintf
      "gemm allocation gate FAILED: %.0f words/chunk > %d (see DESIGN.md)@."
      per_chunk_words alloc_words_per_chunk_threshold;
    exit 1
  end;
  if not obs_ok then begin
    Format.eprintf
      "observability overhead gate FAILED: %.2f%% > %.1f%% (see DESIGN.md \
       \xc2\xa75d)@."
      !overhead_pct obs_overhead_threshold_pct;
    exit 1
  end;
  if not conc_ok then begin
    Format.eprintf
      "checked-wrapper overhead gate FAILED: %.2f%% > %.1f%% (see DESIGN.md \
       \xc2\xa75g)@."
      conc_pct conc_overhead_threshold_pct;
    exit 1
  end;
  if not scaling_ok then begin
    Format.eprintf
      "domains scaling gate FAILED: d4 %.2f img/s < d1 %.2f img/s@."
      (float_of_int images /. t4)
      (float_of_int images /. t1);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Resilience: fault-injection sensitivity                             *)
(* ------------------------------------------------------------------ *)

let run_resilience () =
  section
    "Resilience: LUT-bit sensitivity (ResNet-8, seeded SEU campaign)";
  let images = max images_measured 32 in
  let graph = Resnet.build ~depth:8 () in
  (* Random weights classify at chance, which would flatten every
     sensitivity row to zero — a short fine-tune on the synthetic
     training distribution lifts the baseline well above chance so
     degradation has room to show. *)
  let train_set = Cifar.normalize (Cifar.generate ~seed:1 ~n:96 ()) in
  let config =
    {
      Ax_train.Trainer.default_config with
      Ax_train.Trainer.epochs = 15;
      learning_rate = 0.02;
      batch_size = 12;
    }
  in
  let t0 = Unix.gettimeofday () in
  let history = Ax_train.Trainer.train config graph train_set in
  let dataset = Cifar.normalize (Cifar.generate ~seed:2 ~n:images ()) in
  Format.printf
    "fine-tune: %.1f s; best train accuracy %.1f%%; held-out float accuracy \
     %.1f%%@.@."
    (Unix.gettimeofday () -. t0)
    (100.
    *. Array.fold_left Float.max 0. history.Ax_train.Trainer.epoch_accuracies)
    (100. *. Ax_train.Trainer.evaluate graph dataset);
  let graph =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_trunc8" graph
  in
  let trials =
    Ax_resilience.Campaign.zero_fault_trial
    :: Ax_resilience.Campaign.lut_bit_trials ~seed:42 ~sites:4096
         ~bits:[ 0; 2; 4; 6; 8; 10; 12; 14; 15 ] ()
  in
  let metrics = Ax_obs.Metrics.create () in
  let report =
    Ax_resilience.Campaign.run ~metrics
      { Ax_resilience.Campaign.graph; dataset;
        backend = Tfapprox.Emulator.Cpu_gemm }
      ~trials
  in
  Format.printf "%a@." Ax_resilience.Campaign.pp report;
  Format.printf
    "@.4096 upset truth-table entries per trial; high product bits (b14, the@.";
  Format.printf
    "unsigned MSB b15) should dominate the drop, low bits vanish in the@.";
  Format.printf "approximation noise the multiplier already has.@.";
  Format.printf "@.-- csv --@.%s" (Ax_resilience.Campaign.csv report)

(* ------------------------------------------------------------------ *)
(* Serve: torture                                                      *)
(* ------------------------------------------------------------------ *)

module Server = Ax_serve.Server
module Store = Ax_serve.Store
module Sclient = Ax_serve.Client
module Protocol = Ax_serve.Protocol
module Admission = Ax_serve.Admission

let temp_socket tag =
  let path = Filename.temp_file ("tfapprox_" ^ tag) ".sock" in
  Sys.remove path;
  path

(* Overload + corrupt artefacts + a garbage-spraying client, all at
   once, against a deliberately tiny queue.  The daemon must survive
   with bounded queue depth, typed rejections, and bit-identical
   answers for every request it accepted. *)
let serve_torture () =
  let dir = Filename.temp_file "tfapprox_torture" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let lut_path name =  Filename.concat dir name in
  (* two corrupt LUT artefacts: one repairable (spec names a registry
     multiplier to re-tabulate), one not *)
  let corrupt path =
    Ax_arith.Lut.save path
      (Tfapprox.Emulator.lut_of_multiplier "mul8u_trunc8");
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    ignore (Unix.lseek fd 4096 Unix.SEEK_SET);
    ignore (Unix.write fd (Bytes.make 16 '\xff') 0 16);
    Unix.close fd
  in
  corrupt (lut_path "repairable.axlut");
  corrupt (lut_path "lost.axlut");
  let store =
    Store.load ~domains:1
      (List.map Store.parse_spec
         [
           "resnet8=resnet8+mul8u_trunc8";
           Printf.sprintf "repaired=resnet8+mul8u_trunc8@%s"
             (lut_path "repairable.axlut");
           Printf.sprintf "lost=resnet8@%s" (lut_path "lost.axlut");
         ])
  in
  let address = Server.Unix_sock (temp_socket "torture") in
  let capacity = 4 in
  let server =
    Server.start
      {
        (Server.default_config ~store ~address ()) with
        Server.queue_capacity = capacity;
        max_batch = 2;
        linger = 0.05;
      }
  in
  (* the one-shot reference for the good model *)
  let graph =
    match Store.find store "resnet8" with
    | Some { Store.status = Store.Ready r; _ } -> r.Store.graph
    | _ -> assert false
  in
  let data = (Cifar.generate ~seed:7 ~n:1 ()).Cifar.images in
  let expected =
    Tfapprox.Emulator.predictions ~verify:false ~domains:1 graph
      ~backend:Tfapprox.Emulator.Cpu_gemm data
  in
  (* 1. overload: pipeline 3x capacity requests in one burst inside the
     50 ms linger window, so the queue must fill and refuse *)
  let burst = 3 * capacity in
  let c = Sclient.connect address in
  let req_frame id =
    Protocol.frame
      (Protocol.encode_request
         (Protocol.Infer { id; model = "resnet8"; deadline_ms = None; input = data }))
  in
  for id = 0 to burst - 1 do
    Sclient.send_raw c (req_frame id)
  done;
  let accepted = ref 0 and overloaded = ref 0 and odd = ref 0 in
  for _ = 1 to burst do
    match Sclient.read_response c with
    | Ok (Protocol.Predictions { classes; _ }) ->
      incr accepted;
      if classes <> expected then begin
        Format.eprintf "torture: accepted request not bit-identical@.";
        exit 1
      end
    | Ok (Protocol.Error { code = Protocol.Overloaded; retry_after_ms; _ }) ->
      incr overloaded;
      if retry_after_ms <= 0 then begin
        Format.eprintf "torture: Overloaded without a retry hint@.";
        exit 1
      end
    | Ok _ | Error _ -> incr odd
  done;
  Sclient.close c;
  (* 2. concurrently: a garbage client, vanishing clients (EOF with
     requests still queued — the fd-recycling hazard: their pending
     deliveries must be dropped, never written into another client's
     stream) and requests against the degraded + repaired models *)
  let garbage_ok = ref false in
  let g =
    Thread.create
      (fun () ->
        let st = Random.State.make [| 0xbeef |] in
        for _ = 1 to 5 do
          let c = Sclient.connect address in
          Sclient.send_raw c
            (Bytes.init 256 (fun _ -> Char.chr (Random.State.int st 256)));
          (match Sclient.read_response c with _ -> () | exception _ -> ());
          Sclient.close c
        done;
        let c = Sclient.connect address in
        (match Sclient.ping c with Ok () -> garbage_ok := true | Error _ -> ());
        Sclient.close c)
      ()
  in
  let v =
    Thread.create
      (fun () ->
        for id = 0 to 7 do
          let c = Sclient.connect address in
          Sclient.send_raw c (req_frame (1000 + id));
          Sclient.close c
        done)
      ()
  in
  let c = Sclient.connect address in
  (* the vanishers above race these checks for the capacity-4 queue, so
     a typed [Overloaded] is a correct answer here — retry like a
     well-behaved client instead of calling it a failure *)
  let rec infer_admitted ?deadline_ms ~tries model =
    match Sclient.infer c ?deadline_ms ~model data with
    | Error (Sclient.Refused { code = Protocol.Overloaded; _ }) when tries > 0
      ->
      Thread.delay 0.02;
      infer_admitted ?deadline_ms ~tries:(tries - 1) model
    | r -> r
  in
  let unavailable_typed =
    match Sclient.infer c ~model:"lost" data with
    | Error (Sclient.Refused { code = Protocol.Model_unavailable; _ }) -> true
    | _ -> false
  in
  let repaired_ok =
    match infer_admitted ~tries:100 "repaired" with
    | Ok classes -> classes = expected
    | Error _ -> false
  in
  (* an expired deadline is answered typed, never scheduled *)
  let deadline_typed =
    match infer_admitted ~deadline_ms:0 ~tries:100 "resnet8" with
    | Error (Sclient.Refused { code = Protocol.Deadline_exceeded; _ }) -> true
    | Ok _ -> true (* scheduler won the race; acceptable, not a crash *)
    | Error _ -> false
  in
  Sclient.close c;
  Thread.join g;
  Thread.join v;
  (* every response after the vanishers must still be correct and bound
     to the right connection *)
  let post_vanish_ok =
    let c = Sclient.connect address in
    let r =
      match Sclient.infer c ~id:42 ~model:"resnet8" data with
      | Ok classes -> classes = expected
      | Error (Sclient.Refused { code = Protocol.Overloaded; _ }) -> true
      | Error _ -> false
    in
    Sclient.close c;
    r
  in
  let st = Admission.stats (Server.admission server) in
  Server.stop server;
  Format.printf
    "burst of %d vs capacity %d: %d accepted (all bit-identical), %d \
     refused Overloaded@."
    burst capacity !accepted !overloaded;
  Format.printf
    "max queue depth %d (bound %d); %d expired at the batch boundary@."
    st.Admission.max_depth capacity st.Admission.expired;
  Format.printf
    "degraded model -> typed Model_unavailable: %b; repaired LUT serves \
     bit-identically: %b@."
    unavailable_typed repaired_ok;
  Format.printf "garbage client contained, daemon alive: %b@." !garbage_ok;
  Format.printf
    "vanishing clients (EOF with queued requests) contained: %b@."
    post_vanish_ok;
  let ok =
    !overloaded > 0 && !odd = 0
    && st.Admission.max_depth <= capacity
    && unavailable_typed && repaired_ok && deadline_typed && !garbage_ok
    && post_vanish_ok
  in
  if not ok then begin
    Format.eprintf "serve torture section FAILED@.";
    exit 1
  end;
  Format.printf "torture: ok — zero daemon crashes@."

let run_serve () =
  section "Serve: torture (overload + corrupt LUTs + garbage client)";
  serve_torture ()

(* ------------------------------------------------------------------ *)
(* Device sweep                                                        *)
(* ------------------------------------------------------------------ *)

let run_device_sweep () =
  section "A-extra: device sweep (modelled AxConv2D, ResNet-20, 10k images)";
  let graph = Resnet.build ~depth:20 () in
  let sample = (Cifar.generate ~n:2 ()).Cifar.images in
  let workloads =
    Cost.workloads_of_graph graph
      ~input:(Resnet.input_shape ~batch:1)
      ~images:10_000
  in
  Format.printf "%-18s %12s %12s %12s@." "device" "t_init" "t_comp" "hit rate";
  List.iter
    (fun device ->
      let rate = Experiments.measured_lut_hit_rate ~device ~graph ~sample () in
      let init =
        Cost.transfer_init device
          ~dataset_bytes:(float_of_int (10_000 * Cifar.image_bytes))
          ~weight_bytes:1e6
      in
      let phases =
        Cost.approx_network device ~lut_hit_rate:rate ~chunk_size:250
          workloads
      in
      Format.printf "%-18s %10.2f s %10.2f s %11.1f%%@." device.Device.name
        init.Cost.init_s (Cost.total phases)
        (100. *. rate))
    [ Device.gtx_1080; Device.jetson_class; Device.datacenter_class ]

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table1", run_table1);
    ("fig2", run_fig2);
    ("lut-independence", run_lut_independence);
    ("cache-ablation", run_cache_ablation);
    ("chunk-ablation", run_chunk_ablation);
    ("accumulator-ablation", run_accumulator_ablation);
    ("workloads", run_workloads);
    ("round-modes", run_round_modes);
    ("per-layer", run_per_layer);
    ("device-sweep", run_device_sweep);
    ("serve", run_serve);
    ("gemm", run_gemm);
    ("resilience", run_resilience);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | [ _ ] | [] -> List.map fst all_sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None ->
        Format.printf "unknown section %s (have: %s)@." name
          (String.concat ", " (List.map fst all_sections));
        exit 1)
    requested
