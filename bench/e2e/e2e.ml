(* End-to-end benchmark of the emulator.

   One process runs one named workload for a fixed number of seconds and
   prints every metric as "<workload> <metric> <value> <unit>", then, as
   its last line, one JSON object {correct, attempted, failed, metrics}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   run is repeated with spans recorded around the calls into each layer
   and the metrics are the per-layer ones.  Every timed operation is
   checked bit for bit; a mismatch counts as a failed operation and the
   process exits 1 after printing.  README.md has the workload and metric
   tables and the reasons behind them. *)

module E = Tfapprox.Emulator
module Pool = Ax_pool.Pool
module Tensor = Ax_tensor.Tensor
module Shape = Ax_tensor.Shape
module Graph = Ax_nn.Graph
module Profile = Ax_nn.Profile
module Json = Ax_obs.Json
module Metrics = Ax_obs.Metrics
module Trace = Ax_obs.Trace
module Check = Ax_analysis.Check
module Cost = Ax_gpusim.Cost
module Lut = Ax_arith.Lut
module Registry = Ax_arith.Registry
module Search = Ax_explore.Search
module Pareto = Ax_explore.Pareto
module Store = Ax_serve.Store
module Server = Ax_serve.Server
module Client = Ax_serve.Client
module Admission = Ax_serve.Admission

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let end_to_end =
  [
    ("setup_s", "s");
    ("items_per_s", "1/s");
    ("items_per_s_d1", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("axconv.ns_per_mac", "ns");
    ("depthwise.ns_per_mac", "ns");
    ("exec.ax_conv_share", "fraction");
    ("exec.ax_depthwise_share", "fraction");
    ("phase.init_ms_per_image", "ms");
    ("phase.quantization_ms_per_image", "ms");
    ("phase.lut_ms_per_image", "ms");
    ("phase.other_ms_per_image", "ms");
    ("count.lut_lookups_per_image", "count");
    ("count.macs_per_image", "count");
    ("pool.parallel_calls_per_item", "count");
    ("pool.inline_calls_per_item", "count");
    ("pool.claims_per_item", "count");
    ("pool.busy_fraction", "fraction");
    ("pool.imbalance", "fraction");
    ("gc.minor_words_per_item", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("check.verify_ms", "ms");
    ("lut.tabulate_ms", "ms");
    ("serve.client_p50_ms", "ms");
    ("serve.client_p99_ms", "ms");
    ("serve.server_p50_ms", "ms");
    ("serve.server_p99_ms", "ms");
    ("serve.wire_p50_ms", "ms");
    ("serve.jobs_per_batch", "count");
    ("serve.queue_max_depth", "count");
    ("serve.rejected", "count");
    ("explore.certify_ms", "ms");
    ("explore.tabulate_ms", "ms");
    ("explore.score_ms", "ms");
    ("explore.evaluated", "count");
    ("explore.rejected", "count");
    ("explore.cache_hits", "count");
    ("explore.useful_ratio", "fraction");
    ("gpusim.rank_corr", "rho");
    ("trace.overhead_pct", "%");
  ]

(* ------------------------------------------------------------------ *)
(* Operations and their correctness                                    *)
(* ------------------------------------------------------------------ *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let check_op ~what ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "e2e: FAILED %s\n%!" what
  end

let digest_tensor t =
  let buf = Tensor.buffer t in
  let n = Bigarray.Array1.dim buf in
  let b = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.bits_of_float buf.{i})
  done;
  Digest.to_hex (Digest.bytes b)

let digest_string s = Digest.to_hex (Digest.string s)

(* The reference digests of a run, printed so a new golden set can be
   read off a seed's output. *)
let print_digest workload label d = Printf.printf "%s digest %s %s\n" workload label d

let check_golden ~workload ~seed ~label d =
  match Golden.find ~workload ~seed ~label with
  | Some g -> check_op ~what:(Printf.sprintf "%s %s: golden digest" workload label) (g = d)
  | None -> ()

(* Run [op] (which returns its own measured seconds) until [seconds]
   have passed, at least once. *)
let repeat_for seconds op =
  let stop = now () +. seconds in
  let rec go k acc =
    let acc = op k :: acc in
    if now () < stop then go (k + 1) acc else List.rev acc
  in
  go 0 []

(* One operation at N domains, then one at 1 domain, until [seconds]
   have passed: a slow spell on the host then hits both widths alike
   instead of one whole phase.  Returns both lists of results. *)
let alternate seconds wide narrow =
  let stop = now () +. seconds in
  let rec go k ws ns =
    let ws = wide k :: ws in
    let ns = narrow k :: ns in
    if now () < stop then go (k + 1) ws ns else (List.rev ws, List.rev ns)
  in
  go 0 [] []

let sum = List.fold_left ( +. ) 0.

(* Throughput from the faster quarter of a run's operations.  Every op
   of a run does the same work, so on a shared host the slow ones are
   slow because of the neighbours, not the code; the lower quartile of
   op times tracks the code with less run-to-run spread than the
   median. *)
let fast_rate items times = items /. Stats.percentile times 0.25

(* Set-up is repeated and its median reported, so one slow repetition
   (a page-cache miss, a neighbour's burst) does not move the metric: at
   least three repetitions, more while they take under a second in
   total.  [discard] tears down every repetition but the last. *)
let timed_setup ~quick ?(discard = ignore) setup =
  let rec go times =
    let v, t = time setup in
    let times = t :: times in
    if quick || (List.length times >= 3 && (sum times >= 1. || List.length times >= 40))
    then (Stats.median times, v)
    else begin
      discard v;
      go times
    end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded only by this file, around calls into each layer's
   public functions, reusing the library's span record with
   span_id/parent_id/op_id attributes.  They stay in memory and are
   written once, when the run ends. *)
let tracing = ref false
let origin = now ()
let span_lock = Mutex.create ()
let next_span = ref 0
let recorded : Trace.span list ref = ref []

let fresh_span () =
  Mutex.protect span_lock (fun () ->
      incr next_span;
      !next_span)

let record ~id ~parent ~op ~name ?(attrs = []) ~start ~stop () =
  let sp =
    {
      Trace.name;
      attrs =
        ("span_id", string_of_int id)
        :: ("parent_id", string_of_int parent)
        :: ("op_id", string_of_int op)
        :: attrs;
      start_us = (start -. origin) *. 1e6;
      dur_us = Float.max 1e-3 ((stop -. start) *. 1e6);
      depth = 0;
      tid = Thread.id (Thread.self ());
    }
  in
  Mutex.protect span_lock (fun () -> recorded := sp :: !recorded)

(* [f] receives the new span's id, to parent its children on. *)
let span ~parent ~op ?attrs name f =
  if not !tracing then f 0
  else begin
    let id = fresh_span () in
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        record ~id ~parent ~op ~name ?attrs ~start ~stop:(now ()) ())
      (fun () -> f id)
  end

let attr k (s : Trace.span) = List.assoc_opt k s.Trace.attrs

(* Self time per span name: a span's duration minus the part of it its
   children cover (concurrent children, as serve's clients, overlap). *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          let iv = (s.Trace.start_us, s.Trace.start_us +. s.Trace.dur_us) in
          Hashtbl.replace children p
            (iv :: Option.value ~default:[] (Hashtbl.find_opt children p)))
        (attr "parent_id" s))
    spans;
  let covered lo hi ivs =
    let _, total =
      List.fold_left
        (fun (reached, total) (a, b) ->
          let a = Float.max a reached and b = Float.min b hi in
          if b > a then (b, total +. (b -. a)) else (reached, total))
        (lo, 0.) (List.sort compare ivs)
    in
    total
  in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let ivs =
        Option.value ~default:[]
          (Option.bind (attr "span_id" s) (Hashtbl.find_opt children))
      in
      let lo = s.Trace.start_us in
      let self = s.Trace.dur_us -. covered lo (lo +. s.Trace.dur_us) ivs in
      Hashtbl.replace by_name s.Trace.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.Trace.name)))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

let chrome_json spans =
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.Trace.name);
                   ("ph", Json.String "X");
                   ("ts", Json.Float s.Trace.start_us);
                   ("dur", Json.Float s.Trace.dur_us);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int s.Trace.tid);
                   ( "args",
                     Json.Obj
                       (List.map (fun (k, v) -> (k, Json.String v)) s.Trace.attrs) );
                 ])
             spans) );
      ("displayTimeUnit", Json.String "ms");
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer readings                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-node wall time from successive tap calls.  The emulator taps
   every tensor-valued node after it runs, so the interval ending at a
   node's tap is charged to that node; scalar Min/Max nodes have no tap
   and land on the tensor node that consumes them. *)
type node_clock = { mutable last : float; node_seconds : (string, float) Hashtbl.t }

let node_clock () = { last = now (); node_seconds = Hashtbl.create 64 }

let node_tap clock ~parent ~op (n : Graph.node) t =
  let stop = now () in
  (match n.Graph.op with
  | Graph.Input -> ()
  | kind ->
    let start = clock.last in
    Hashtbl.replace clock.node_seconds n.Graph.name
      (stop -. start
      +. Option.value ~default:0. (Hashtbl.find_opt clock.node_seconds n.Graph.name));
    if !tracing then
      record ~id:(fresh_span ()) ~parent ~op ~name:(Graph.op_name kind)
        ~attrs:[ ("node", n.Graph.name) ]
        ~start ~stop ());
  clock.last <- now ();
  t

let chunk_size graph =
  Array.fold_left
    (fun acc (n : Graph.node) ->
      match (acc, n.Graph.op) with
      | None, Graph.Ax_conv2d { config; _ } -> Some config.Ax_nn.Axconv.chunk_size
      | _ -> acc)
    None (Graph.nodes graph)
  |> Option.value ~default:Ax_nn.Axconv.default_chunk_size

let per f x = if x > 0. then f /. x else 0.

(* Emulator-layer readings over tapped runs of [graph] on [images]
   images taking [op_seconds] in total, plus the Fig. 2 phase split of
   [profiled] (a profile and the images it covered).  The profile comes
   from a separate pass because its accounting, per output position in
   the depthwise kernel, would inflate the tapped node times many times
   over.  Also prints one exec.<node>.ns_per_mac line per approximate
   node. *)
let emulator_layers ~workload ~graph ~input ~images ~op_seconds ~profiled:(profile, profiled)
    clock =
  let imgs = float_of_int images in
  let layers = Cost.workloads_of_graph graph ~input ~images:1 in
  let kind (w : Cost.conv_workload) =
    match Graph.find_by_name graph w.Cost.label with
    | Some { Graph.op = Graph.Ax_conv2d _; _ } -> `Conv
    | Some { Graph.op = Graph.Ax_depthwise_conv2d _; _ } -> `Dw
    | _ -> `Other
  in
  let seconds (w : Cost.conv_workload) =
    Option.value ~default:0. (Hashtbl.find_opt clock.node_seconds w.Cost.label)
  in
  let total k =
    List.fold_left
      (fun (s, m) w -> if kind w = k then (s +. seconds w, m +. Cost.lut_lookups w) else (s, m))
      (0., 0.) layers
  in
  let conv_s, conv_macs = total `Conv and dw_s, dw_macs = total `Dw in
  let ns_per_mac s macs = per (s *. 1e9) (macs *. imgs) in
  List.iter
    (fun w ->
      if kind w <> `Other then
        Printf.printf "%s exec.%s.ns_per_mac %.6g ns\n" workload
          (String.map (fun c -> if c = '/' then '.' else c) w.Cost.label)
          (ns_per_mac (seconds w) (Cost.lut_lookups w)))
    layers;
  let convs = List.filter (fun w -> kind w = `Conv) layers in
  let modelled =
    Cost.per_layer Ax_gpusim.Device.gtx_1080 ~chunk_size:(chunk_size graph)
      (Cost.workloads_of_graph graph ~input ~images)
  in
  let rank_corr =
    Stats.spearman
      (Array.of_list (List.map seconds convs))
      (Array.of_list
         (List.map
            (fun (w : Cost.conv_workload) ->
              Cost.total (List.assoc w.Cost.label modelled))
            convs))
  in
  let profiled = float_of_int profiled in
  let phase p = Profile.seconds profile p *. 1000. /. profiled in
  [
    ("axconv.ns_per_mac", ns_per_mac conv_s conv_macs);
    ("depthwise.ns_per_mac", ns_per_mac dw_s dw_macs);
    ("exec.ax_conv_share", per conv_s op_seconds);
    ("exec.ax_depthwise_share", per dw_s op_seconds);
    ("phase.init_ms_per_image", phase Profile.Init);
    ("phase.quantization_ms_per_image", phase Profile.Quantization);
    ("phase.lut_ms_per_image", phase Profile.Lut);
    ("phase.other_ms_per_image", phase Profile.Other);
    ("count.lut_lookups_per_image", float_of_int (Profile.lut_lookups profile) /. profiled);
    ("count.macs_per_image", float_of_int (Profile.macs profile) /. profiled);
    ("gpusim.rank_corr", rank_corr);
  ]

(* Pool and GC readings are deltas over the traced phase, per item (an
   image, a request or a candidate evaluation). *)
type counters = { pool : Pool.stats; gc : Gc.stat }

let counters () = { pool = Pool.stats (Pool.default ()); gc = Gc.quick_stat () }

let counter_layers a b ~items =
  let items = float_of_int items in
  let pa = a.pool and pb = b.pool in
  let busy =
    Array.mapi
      (fun i v ->
        v -. if i < Array.length pa.Pool.per_domain_busy_seconds then pa.Pool.per_domain_busy_seconds.(i) else 0.)
      pb.Pool.per_domain_busy_seconds
  in
  let fanout = pb.Pool.fanout_wall_seconds -. pa.Pool.fanout_wall_seconds in
  let count x y = per (float_of_int (y - x)) items in
  [
    ("pool.parallel_calls_per_item", count pa.Pool.parallel_calls pb.Pool.parallel_calls);
    ("pool.inline_calls_per_item", count pa.Pool.inline_calls pb.Pool.inline_calls);
    ("pool.claims_per_item", count pa.Pool.claims pb.Pool.claims);
    ( "pool.busy_fraction",
      per (pb.Pool.busy_seconds -. pa.Pool.busy_seconds)
        (fanout *. float_of_int (Array.length busy)) );
    ("pool.imbalance", Pool.imbalance { pb with Pool.per_domain_busy_seconds = busy });
    ("gc.minor_words_per_item", per (b.gc.Gc.minor_words -. a.gc.Gc.minor_words) items);
    ("gc.major_collections", float_of_int (b.gc.Gc.major_collections - a.gc.Gc.major_collections));
    ("gc.top_heap_mb", float_of_int (b.gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

(* Verification of a freshly built graph (the check is cached per
   physical graph, so each repetition builds its own). *)
let verify_ms ~input build =
  Stats.median
    (List.init 3 (fun _ ->
         let g = build () in
         snd (time (fun () -> Check.assert_runnable ~input g)) *. 1000.))

let tabulate_ms name =
  let entry = Registry.find_exn name in
  (* a netlist entry simulates its circuit on the first product *)
  ignore (entry.Registry.multiply 0 0);
  Stats.median
    (List.init 3 (fun _ ->
         snd (time (fun () -> Lut.make ~signedness:entry.Registry.signedness entry.Registry.multiply))
         *. 1000.))

let overhead_pct ~untraced ~traced = per ((untraced -. traced) *. 100.) untraced

(* ------------------------------------------------------------------ *)
(* Batch workloads: resnet8-batch, mobilenet-batch                     *)
(* ------------------------------------------------------------------ *)

type batch_workload = {
  name : string;
  build : seed:int -> Graph.t;
  multiplier : string;
  input : batch:int -> Shape.t;
}

let resnet8 =
  {
    name = "resnet8-batch";
    build = (fun ~seed -> Ax_models.Resnet.build ~seed ~depth:8 ());
    multiplier = "mul8u_trunc8";
    input = Ax_models.Resnet.input_shape;
  }

let mobilenet =
  {
    name = "mobilenet-batch";
    build = (fun ~seed -> Ax_models.Mobilenet.build ~seed ());
    multiplier = "mul8u_mitchell";
    input = Ax_models.Mobilenet.input_shape;
  }

let batch_images = 32
let distinct_batches = 4

let run_batch ?lut w ~n ~seed ~seconds ~traced ~quick =
  let input = w.input ~batch:batch_images in
  (* A fresh process tabulates its multiplier once, so every repetition
     does too instead of reading the process-wide LUT cache. *)
  let entry = Registry.find_exn w.multiplier in
  let setup () =
    let lut =
      match lut with
      | Some lut -> lut
      | None -> Lut.make ~signedness:entry.Registry.signedness entry.Registry.multiply
    in
    let g = w.build ~seed in
    let gn = E.approximate_model ~lut ~domains:n g
    and g1 = E.approximate_model ~lut ~domains:1 g in
    Check.assert_runnable ~input gn;
    Check.assert_runnable ~input g1;
    ignore (Pool.ensure ~domains:n);
    (gn, g1)
  in
  let setup_s, (gn, g1) = timed_setup ~quick setup in
  let batches =
    Array.init (if quick then 1 else distinct_batches) (fun i ->
        (Ax_data.Cifar.generate ~seed:((seed * 1000) + i) ~n:batch_images ())
          .Ax_data.Cifar.images)
  in
  let run ?profile ?tap ?(backend = E.Cpu_gemm) g x =
    E.run ~verify:false ?profile ?tap ~backend g x
  in
  (* Cpu_gemm against the nested-loop Cpu_direct baseline on a 2-image
     slice of every batch, then one reference digest per batch. *)
  Array.iteri
    (fun i x ->
      let s = Tensor.slice_batch x ~start:0 ~count:2 in
      check_op
        ~what:(Printf.sprintf "%s batch %d: Cpu_gemm differs from Cpu_direct" w.name i)
        (digest_tensor (run g1 s) = digest_tensor (run ~backend:E.Cpu_direct g1 s)))
    batches;
  let reference =
    Array.mapi
      (fun i x ->
        let d = digest_tensor (run gn x) in
        let label = Printf.sprintf "batch%d" i in
        print_digest w.name label d;
        check_golden ~workload:w.name ~seed ~label d;
        d)
      batches
  in
  let op ?tap g k =
    let i = k mod Array.length batches in
    let out, t = time (fun () -> run ?tap g batches.(i)) in
    check_op
      ~what:(Printf.sprintf "%s batch %d: output bits differ from the reference" w.name i)
      (digest_tensor out = reference.(i));
    t
  in
  let ips = fast_rate (float_of_int batch_images) in
  if quick then []
  else if not traced then begin
    let wide, narrow = alternate seconds (op gn) (op g1) in
    [
      ("setup_s", setup_s);
      ("items_per_s", ips wide);
      ("items_per_s_d1", ips narrow);
    ]
  end
  else begin
    let untraced = repeat_for (seconds /. 2.) (op gn) in
    tracing := true;
    let clock = node_clock () in
    let before = counters () in
    let traced_times =
      span ~parent:0 ~op:0 ~attrs:[ ("workload", w.name) ] "workload" (fun wid ->
          repeat_for (seconds /. 2.) (fun k ->
              span ~parent:wid ~op:(k + 1) "op.batch" (fun oid ->
                  clock.last <- now ();
                  op ~tap:(node_tap clock ~parent:oid ~op:(k + 1)) gn k)))
    in
    let after = counters () in
    tracing := false;
    let images = batch_images * List.length traced_times in
    emulator_layers ~workload:w.name ~graph:gn ~input:(w.input ~batch:1) ~images
      ~op_seconds:(sum traced_times) clock
      ~profiled:
        (let profile = Profile.create () in
         ignore (run ~profile gn batches.(0));
         (profile, batch_images))
    @ counter_layers before after ~items:images
    @ [
        ( "check.verify_ms",
          verify_ms ~input (fun () ->
              E.approximate_model ~multiplier:w.multiplier ~domains:n (w.build ~seed)) );
        ("lut.tabulate_ms", tabulate_ms w.multiplier);
        ("trace.overhead_pct", overhead_pct ~untraced:(ips untraced) ~traced:(ips traced_times));
      ]
  end

(* ------------------------------------------------------------------ *)
(* serve-resnet8                                                       *)
(* ------------------------------------------------------------------ *)

let serve_name = "serve-resnet8"
let serve_spec = "resnet8=resnet8+mul8u_trunc8"
let serve_images = 8

let work_dir = ".bench_e2e"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

let start_server ~address ~domains =
  let store = Store.load ~domains [ Store.parse_spec serve_spec ] in
  let metrics = Metrics.create () in
  let server =
    Server.start
      {
        (Server.default_config ~store ~address ()) with
        Server.domains;
        queue_capacity = 64;
        max_batch = 8;
        linger = 0.001;
        metrics;
      }
  in
  let c = Client.connect ~timeout:60. address in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.ping c with
      | Ok () -> ()
      | Error e -> failwith ("serve: ping failed: " ^ Client.error_to_string e));
  (store, server, metrics)

type load = { latencies : float list; windows : float list }

(* Requests per throughput window: the serve counterpart of an op. *)
let window = 16

(* [clients] closed-loop callers, each sending its next single-image
   request only after the previous answer, until [seconds] have passed.
   Client c starts at image c and cycles through the shared image set.
   [windows] are the durations of successive runs of [window]
   completions. *)
let serve_load ~address ~images ~expected ~clients ~seconds ~workload_span =
  let start = now () in
  let stop = start +. seconds in
  let latencies = Array.make clients [] and completed = Array.make clients [] in
  let next_op = Atomic.make 1 in
  let client c () =
    match Client.connect ~timeout:60. address with
    | exception e ->
      check_op ~what:("serve: connect: " ^ Printexc.to_string e) false
    | conn ->
      let k = ref 0 in
      while !k = 0 || now () < stop do
        let j = (c + !k) mod Array.length images in
        let op = Atomic.fetch_and_add next_op 1 in
        let result, t =
          span ~parent:workload_span ~op "op.request" (fun rid ->
              time (fun () ->
                  span ~parent:rid ~op "client.infer" (fun _ ->
                      Client.infer conn ~id:!k ~model:"resnet8" images.(j))))
        in
        check_op
          ~what:(Printf.sprintf "serve: request for image %d" j)
          (match result with Ok classes -> classes = expected.(j) | Error _ -> false);
        latencies.(c) <- t :: latencies.(c);
        completed.(c) <- now () :: completed.(c);
        incr k
      done;
      Client.close conn
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  let ends = Array.of_list (Stats.sorted (start :: List.concat (Array.to_list completed))) in
  {
    latencies = List.concat (Array.to_list latencies);
    windows =
      List.init ((Array.length ends - 1) / window) (fun i ->
          ends.((i + 1) * window) -. ends.(i * window));
  }

let rate loads = fast_rate (float_of_int window) (List.concat_map (fun l -> l.windows) loads)

(* Serve alternates between its two daemons in slices of this many
   seconds; a slice holds several windows at either width. *)
let serve_slice = 2.5

let run_serve ~n ~seed ~seconds ~traced ~quick =
  ensure_work_dir ();
  let socket tag =
    Server.Unix_sock
      (Filename.concat work_dir (Printf.sprintf "serve-%d-%s.sock" (Unix.getpid ()) tag))
  in
  let address = socket "n" in
  let discard (_, server, _) = Server.stop server in
  let setup_s, (store, server, metrics) =
    timed_setup ~quick ~discard (fun () -> start_server ~address ~domains:n)
  in
  let graph =
    match Store.find store "resnet8" with
    | Some { Store.status = Store.Ready r; _ } -> r.Store.graph
    | _ -> failwith "serve: resnet8 did not load"
  in
  let data = Ax_data.Cifar.generate ~seed:((seed * 1000) + 500) ~n:serve_images () in
  let images =
    Array.init serve_images (fun i ->
        Tensor.slice_batch data.Ax_data.Cifar.images ~start:i ~count:1)
  in
  (* One-shot domains:1 references, computed serially before any load:
     the emulator is not reentrant across threads of one domain. *)
  let expected =
    Array.map
      (fun x -> E.predictions ~verify:false ~domains:1 graph ~backend:E.Cpu_gemm x)
      images
  in
  let d =
    digest_string
      (String.concat ";"
         (Array.to_list
            (Array.map
               (fun p -> String.concat "," (Array.to_list (Array.map string_of_int p)))
               expected)))
  in
  print_digest serve_name "predictions" d;
  check_golden ~workload:serve_name ~seed ~label:"predictions" d;
  let load ?(address = address) ?(workload_span = 0) seconds =
    serve_load ~address ~images ~expected ~clients:n ~seconds ~workload_span
  in
  if quick then begin
    ignore (load 0.);
    Server.stop server;
    []
  end
  else if not traced then begin
    let address1 = socket "1" in
    let _, server1, _ = start_server ~address:address1 ~domains:1 in
    let wide, narrow =
      alternate seconds (fun _ -> load serve_slice) (fun _ -> load ~address:address1 serve_slice)
    in
    Server.stop server;
    Server.stop server1;
    [ ("setup_s", setup_s); ("items_per_s", rate wide); ("items_per_s_d1", rate narrow) ]
  end
  else begin
    let untraced = load (seconds /. 2.) in
    tracing := true;
    let snap0 = Metrics.snapshot metrics in
    let adm0 = Admission.stats (Server.admission server) in
    let before = counters () in
    span ~parent:0 ~op:0 ~attrs:[ ("workload", serve_name) ] "workload" (fun wid ->
        let traced_load = load ~workload_span:wid (seconds /. 2.) in
        let after = counters () in
        let adm1 = Admission.stats (Server.admission server) in
        let served = Metrics.diff ~before:snap0 ~after:(Metrics.snapshot metrics) in
        Server.stop server;
        (* The daemon's emulator calls take no tap, so the emulator layers
           are read by replaying the same single-image requests in process. *)
        let clock = node_clock () in
        let replay =
          Array.to_list
            (Array.mapi
               (fun i x ->
                 let op = -(i + 1) in
                 span ~parent:wid ~op "op.replay" (fun oid ->
                     clock.last <- now ();
                     snd
                       (time (fun () ->
                            E.predictions ~verify:false ~tap:(node_tap clock ~parent:oid ~op)
                              graph ~backend:E.Cpu_gemm x))))
               images)
        in
        tracing := false;
        let server_q q =
          match Metrics.find_histogram served "serve_request_seconds" with
          | Some h -> 1000. *. q h
          | None -> 0.
        in
        let server_p50 = server_q (fun h -> h.Metrics.p50) in
        let client_q p = Stats.percentile traced_load.latencies p *. 1000. in
        let delta f = float_of_int (f adm1 - f adm0) in
        emulator_layers ~workload:serve_name ~graph
          ~input:(Ax_models.Resnet.input_shape ~batch:1) ~images:serve_images
          ~op_seconds:(sum replay) clock
          ~profiled:
            (let profile = Profile.create () in
             Array.iter
               (fun x ->
                 ignore (E.predictions ~verify:false ~profile graph ~backend:E.Cpu_gemm x))
               images;
             (profile, serve_images))
        @ counter_layers before after ~items:(List.length traced_load.latencies)
        @ [
            ("serve.client_p50_ms", client_q 0.5);
            ("serve.client_p99_ms", client_q 0.99);
            ("serve.server_p50_ms", server_p50);
            ("serve.server_p99_ms", server_q (fun h -> h.Metrics.p99));
            ("serve.wire_p50_ms", client_q 0.5 -. server_p50);
            ( "serve.jobs_per_batch",
              per (delta (fun a -> a.Admission.batched_jobs)) (delta (fun a -> a.Admission.batches)) );
            ("serve.queue_max_depth", float_of_int adm1.Admission.max_depth);
            ("serve.rejected", delta (fun a -> a.Admission.rejected));
            ( "check.verify_ms",
              verify_ms ~input:(Ax_models.Resnet.input_shape ~batch:1) (fun () ->
                  E.approximate_model ~multiplier:"mul8u_trunc8" ~domains:n
                    (Ax_models.Resnet.build ~depth:8 ())) );
            ("lut.tabulate_ms", tabulate_ms "mul8u_trunc8");
            ( "trace.overhead_pct",
              overhead_pct ~untraced:(rate [ untraced ]) ~traced:(rate [ traced_load ]) );
          ])
  end

(* ------------------------------------------------------------------ *)
(* explore-lenet                                                       *)
(* ------------------------------------------------------------------ *)

let explore_name = "explore-lenet"

let explore_config ~seed =
  {
    Search.default_config with
    Search.seed;
    generations = 1;
    population = 4;
    images = 16;
    model = Search.Lenet;
  }

(* The tiny search the smoke run checks against its own golden digest. *)
let smoke_explore_config =
  { (explore_config ~seed:1) with Search.generations = 0; population = 3; images = 2 }

(* A front is well formed when it is non-empty, every member is
   certified and finite, and no member dominates another. *)
let valid_front (r : Search.result) =
  r.Search.front <> []
  && List.for_all (fun p -> p.Pareto.certified && Pareto.finite p) r.Search.front
  && not
       (List.exists
          (fun p -> List.exists (fun q -> Pareto.dominates p q) r.Search.front)
          r.Search.front)

let explore_layer_probes ~wid =
  let entries =
    List.filter_map
      (fun (e : Registry.entry) ->
        match e.Registry.netlist with
        | Some make when e.Registry.signedness = Ax_arith.Signedness.Unsigned -> Some make
        | _ -> None)
      (Registry.all ())
  in
  let lenet = Ax_models.Lenet.build () in
  let data = Ax_data.Mnist.generate ~n:16 () in
  let clock = node_clock () and profile = Profile.create () in
  let tab = ref [] and cert = ref [] and score = ref [] and approximated = ref lenet in
  let timed acc ~op name f =
    span ~parent:wid ~op name (fun id ->
        let r, t = time (fun () -> f id) in
        acc := (t *. 1000.) :: !acc;
        r)
  in
  List.iteri
    (fun i make ->
      for rep = 0 to 2 do
        let op = -((i * 3) + rep + 1) in
        let m = make () in
        let lut = timed tab ~op "explore.tabulate" (fun _ -> Search.tabulate m) in
        check_op ~what:"explore: registry netlist certifies against its LUT"
          (timed cert ~op "explore.certify" (fun _ -> Search.certify_candidate m ~lut)
          = Ok ());
        let g = E.approximate_model ~lut lenet in
        approximated := g;
        ignore
          (timed score ~op "explore.score" (fun sid ->
               clock.last <- now ();
               E.accuracy ~verify:false ~tap:(node_tap clock ~parent:sid ~op) g
                 ~backend:E.Cpu_gemm data))
      done;
      ignore (E.accuracy ~verify:false ~profile !approximated ~backend:E.Cpu_gemm data))
    entries;
  emulator_layers ~workload:explore_name ~graph:!approximated
    ~input:(Ax_models.Lenet.input_shape ~batch:1)
    ~images:(16 * List.length !score)
    ~op_seconds:(sum !score /. 1000.) clock
    ~profiled:(profile, 16 * List.length entries)
  @ [
      ("explore.tabulate_ms", Stats.median !tab);
      ("explore.certify_ms", Stats.median !cert);
      ("explore.score_ms", Stats.median !score);
      ( "check.verify_ms",
        verify_ms ~input:(Ax_models.Lenet.input_shape ~batch:1) (fun () ->
            E.approximate_model ~lut:(Registry.lut (Registry.find_exn "mul8u_nl_trunc8")) lenet) );
      ("lut.tabulate_ms", tabulate_ms "mul8u_nl_trunc8");
    ]

let run_explore ~n:_ ~seed ~seconds ~traced ~quick =
  let config = if quick then smoke_explore_config else explore_config ~seed in
  let label = if quick then "front-smoke" else "front" in
  let setup_s, () =
    timed_setup ~quick (fun () ->
        ignore
          (Search.run { config with Search.generations = 0; population = 1; images = 1 }))
  in
  let reference = ref None in
  let last = ref None in
  let search ?max_domains ?(parent = 0) k =
    span ~parent ~op:(k + 1) "op.search" (fun _ ->
        let r, t = time (fun () -> Search.run { config with Search.max_domains }) in
        let d = digest_string (Search.front_json_string r) in
        (match !reference with
        | None ->
          reference := Some d;
          print_digest explore_name label d;
          check_golden ~workload:explore_name ~seed ~label d
        | Some _ -> ());
        check_op ~what:"explore: front differs from the run's first search or is malformed"
          (Some d = !reference && valid_front r);
        last := Some r;
        (float_of_int r.Search.evaluated, t))
  in
  let eps runs = fast_rate (fst (List.hd runs)) (List.map snd runs) in
  if quick then begin
    ignore (search 0);
    []
  end
  else if not traced then begin
    let wide, narrow =
      alternate seconds (fun k -> search (2 * k)) (fun k -> search ~max_domains:1 ((2 * k) + 1))
    in
    [
      ("setup_s", setup_s);
      ("items_per_s", eps wide);
      ("items_per_s_d1", eps narrow);
    ]
  end
  else begin
    let untraced = repeat_for (seconds /. 2.) (fun k -> search k) in
    tracing := true;
    let before = counters () in
    span ~parent:0 ~op:0 ~attrs:[ ("workload", explore_name) ] "workload" (fun wid ->
        let traced_runs = repeat_for (seconds /. 2.) (fun k -> search ~parent:wid k) in
        let after = counters () in
        let r = Option.get !last in
        let probes = explore_layer_probes ~wid in
        tracing := false;
        let evaluated = float_of_int r.Search.evaluated in
        let rejected = float_of_int r.Search.rejected in
        let hits = float_of_int r.Search.cache_hits in
        probes
        @ counter_layers before after
            ~items:(int_of_float (sum (List.map fst traced_runs)))
        @ [
            ("explore.evaluated", evaluated);
            ("explore.rejected", rejected);
            ("explore.cache_hits", hits);
            ("explore.useful_ratio", per evaluated (evaluated +. rejected +. hits));
            ("trace.overhead_pct", overhead_pct ~untraced:(eps untraced) ~traced:(eps traced_runs));
          ])
  end

(* ------------------------------------------------------------------ *)
(* Host fingerprint and result output                                  *)
(* ------------------------------------------------------------------ *)

let read_file path =
  try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let kb =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id
        else None)
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Everything about the host that changes a timing; results are only
   comparable between equal fingerprints. *)
let fingerprint ~n =
  let lines = String.split_on_char '\n' (read_file "/proc/cpuinfo") in
  let model =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  let env =
    List.filter (String.starts_with ~prefix:"TFAPPROX_") (Array.to_list (Unix.environment ()))
  in
  Json.Obj
    [
      ("cores", Json.Int (List.length (List.filter (String.starts_with ~prefix:"processor") lines)));
      ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
      ("cpu_model", Json.String (Option.value ~default:"unknown" model));
      ("ocaml", Json.String Sys.ocaml_version);
      ("domains", Json.Int n);
      ("env", Json.List (List.map (fun s -> Json.String s) (List.sort compare env)));
    ]

let git_commit () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unknown"

(* A metric the workload does not exercise, or one with no finite
   reading, reads 0. *)
let metric_value values name =
  match List.assoc_opt name values with Some v when Float.is_finite v -> v | _ -> 0.

let result_json catalogue values =
  let failed = Atomic.get failed in
  Json.Obj
    [
      ("correct", Json.Bool (failed = 0));
      ("attempted", Json.Int (max 1 (Atomic.get attempted)));
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float (metric_value values name));
                     ("unit", Json.String unit);
                   ] ))
             catalogue) );
    ]

let workloads =
  [
    (resnet8.name, run_batch resnet8);
    (mobilenet.name, run_batch mobilenet);
    (serve_name, run_serve);
    (explore_name, run_explore);
  ]

let domains () = min 4 (Domain.recommended_domain_count ())

let run_workload ~name ~seed ~seconds ~traced ~json_out =
  let run = List.assoc name workloads in
  let n = domains () in
  Pool.set_default_size n;
  let fp = fingerprint ~n in
  Printf.printf "%s fingerprint %s\n" name (Json.to_string fp);
  let values = run ~n ~seed ~seconds ~traced ~quick:false in
  let catalogue = if traced then per_layer else end_to_end in
  let values = if traced then values else ("peak_rss_mb", peak_rss_mb ()) :: values in
  let result = result_json catalogue values in
  List.iter
    (fun (metric, unit) ->
      Printf.printf "%s %s %.6g %s\n" name metric (metric_value values metric) unit)
    catalogue;
  if traced then begin
    List.iter
      (fun (span_name, us) -> Printf.printf "%s self_ms %s %.3f\n" name span_name (us /. 1000.))
      (self_times !recorded);
    ensure_work_dir ();
    let path = Filename.concat work_dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Json.to_string (chrome_json (List.rev !recorded))));
    Printf.printf "%s trace %s (%d spans)\n" name path (List.length !recorded)
  end;
  Printf.printf "%s ops_failed %d\n%s ops_total %d\n" name (Atomic.get failed) name
    (Atomic.get attempted);
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.String name);
                    ("seed", Json.Int seed);
                    ("seconds", Json.Float seconds);
                    ("trace", Json.Bool traced);
                    ("commit", Json.String (git_commit ()));
                    ("fingerprint", fp);
                    ("result", result);
                  ]))))
    json_out;
  print_endline (Json.to_string result);
  Pool.shutdown (Pool.default ());
  if Atomic.get failed > 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Smoke run and self-test                                             *)
(* ------------------------------------------------------------------ *)

(* The first operations of every workload on seed 1, checked against
   the golden digests, with no timing gates. *)
let smoke () =
  let n = domains () in
  Pool.set_default_size n;
  List.iter
    (fun (_, run) -> ignore (run ~n ~seed:1 ~seconds:0. ~traced:false ~quick:true))
    workloads;
  Printf.printf "smoke: %d checks, %d failed\n" (Atomic.get attempted) (Atomic.get failed);
  Pool.shutdown (Pool.default ());
  if Atomic.get failed > 0 || Atomic.get attempted = 0 then 1 else 0

(* resnet8-batch on seed 1 with one raw LUT entry flipped must fail its
   golden check: proof that the bit-identity gate is not vacuous.  Exits
   1 when the corruption is caught, 0 when it slips through. *)
let self_test () =
  let n = domains () in
  Pool.set_default_size n;
  let lut = Lut.copy (E.lut_of_multiplier resnet8.multiplier) in
  let idx = Lut.raw_index 0 0 in
  Lut.set_raw lut idx (Lut.get_raw lut idx lxor (1 lsl 14));
  ignore (run_batch ~lut resnet8 ~n ~seed:1 ~seconds:0. ~traced:false ~quick:true);
  Printf.printf "self-test: flipped LUT entry, %d checks, %d failed\n" (Atomic.get attempted)
    (Atomic.get failed);
  Pool.shutdown (Pool.default ());
  if Atomic.get failed > 0 then 1 else 0

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let json_out = ref None and mode = ref `Run in
  let spec =
    [
      ( "--workload",
        Arg.Symbol (List.map fst workloads, fun w -> workload := Some w),
        " workload to run" );
      ("--seed", Arg.Set_int seed, "N seed for weights, data and search (default 1)");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure (default 15)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> trace := int_of_string s), " 1 = traced per-layer run");
      ("--json", Arg.String (fun p -> json_out := Some p), "FILE also write the result with the host fingerprint");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " first operation of every workload against the golden digests");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " corrupt one LUT entry; exits 1 when the gate catches it");
    ]
  in
  let usage = "e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Ax_obs.Log.set_threshold (Some Ax_obs.Log.Warn);
  let code =
    match (!mode, !workload) with
    | `Smoke, _ -> smoke ()
    | `Self_test, _ -> self_test ()
    | `Run, Some name ->
      run_workload ~name ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~json_out:!json_out
    | `Run, None ->
      prerr_endline usage;
      2
  in
  exit code
