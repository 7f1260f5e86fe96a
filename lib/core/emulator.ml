module Registry = Ax_arith.Registry
module Graph = Ax_nn.Graph
module Exec = Ax_nn.Exec
module Axconv = Ax_nn.Axconv
module Transform = Ax_nn.Transform
module Layers = Ax_nn.Layers
module Profile = Ax_nn.Profile
module Pool = Ax_pool.Pool
module Tensor = Ax_tensor.Tensor
module Shape = Ax_tensor.Shape

let lut_of_multiplier name = Registry.lut (Registry.find_exn name)

let approximate_model ?multiplier ?lut ?round_mode ?chunk_size ?domains g =
  let lut =
    match (multiplier, lut) with
    | Some name, None -> lut_of_multiplier name
    | None, Some lut -> lut
    | Some _, Some _ ->
      invalid_arg "Emulator.approximate_model: both multiplier and lut given"
    | None, None ->
      invalid_arg "Emulator.approximate_model: need a multiplier or a lut"
  in
  let config = Axconv.make_config ?round_mode ?chunk_size ?domains lut in
  Transform.approximate ~config g

type backend = Cpu_accurate | Cpu_direct | Cpu_gemm

let strategy_of_backend = function
  | Cpu_accurate | Cpu_gemm -> Exec.Cpu_gemm
  | Cpu_direct -> Exec.Cpu_direct

let backend_name = function
  | Cpu_accurate -> "cpu-accurate"
  | Cpu_direct -> "cpu-direct"
  | Cpu_gemm -> "cpu-gemm"

(* Batch-level sharding: one shard per image, regardless of the domain
   count, so the per-shard Min/Max range nodes see exactly the same data
   for every [domains] value — outputs, counters and accuracy are
   bit-identical between [domains:1] and [domains:N].  (Per-image ranges
   do differ from the un-sharded whole-batch run, which is why sharding
   is opt-in.) *)
let run_sharded ?profile ?tap ~domains ~backend g input =
  let strategy = strategy_of_backend backend in
  let images = Shape.((Tensor.shape input).n) in
  let pool = Pool.ensure ~domains in
  let sink_tracer =
    match profile with Some p -> Profile.trace p | None -> None
  in
  let run_shard i =
    let shard = Tensor.slice_batch input ~start:i ~count:1 in
    let shard_profile =
      match profile with Some _ -> Some (Profile.create ()) | None -> None
    in
    (* Each shard records its spans into a private fork stamped with
       the executing domain's slot — single writer per buffer; the
       coordinator merges the forks in shard order after the join. *)
    (match (shard_profile, sink_tracer) with
    | Some sp, Some sink ->
      Profile.set_trace sp (Ax_obs.Trace.fork sink ~tid:(Pool.current_slot pool))
    | (Some _ | None), _ -> ());
    let start = Unix.gettimeofday () in
    let out = Exec.run ?profile:shard_profile ~strategy ?tap g ~input:shard in
    (out, shard_profile, Unix.gettimeofday () -. start)
  in
  let batch () =
    (* Images are claimed one per claim: image cost varies (cache
       state, range content), and whichever domain drains its image
       first takes the next.  Shard [i]'s output never depends on which
       domain ran it, and [map_array] returns results in index order,
       so the concatenation is bit-identical for any domain count. *)
    let results =
      Pool.map_array pool ~max_domains:domains run_shard
        (Array.init images (fun i -> i))
    in
    (* Shards never touch the coordinator profile ([Ax_obs.Metrics]
       cells are not thread-safe); it folds them in, in index order. *)
    (match profile with
    | Some p ->
      Array.iter
        (fun (_, sp, dur) ->
          match sp with
          | Some sp ->
            Profile.merge ~into:p sp;
            (match (Profile.trace sp, sink_tracer) with
            | Some fork, Some sink -> Ax_obs.Trace.merge ~into:sink fork
            | (Some _ | None), _ -> ());
            Profile.observe p "emulator_image_seconds" dur
          | None -> ())
        results
    | None -> ());
    Tensor.concat_batch
      (Array.to_list (Array.map (fun (out, _, _) -> out) results))
  in
  match profile with
  | None -> batch ()
  | Some p ->
    (* Per-domain pool.task attribution for the batch fan-out; detached
       afterwards so a later untraced run doesn't keep recording. *)
    Pool.set_tracer pool sink_tracer;
    let start = Unix.gettimeofday () in
    let out =
      Fun.protect
        ~finally:(fun () -> Pool.set_tracer pool None)
        (fun () ->
          Profile.span profile ~name:"emulator.run"
            ~attrs:
              [
                ("backend", backend_name backend);
                ("images", string_of_int images);
                ("domains", string_of_int domains);
                ("sharding", "per-image");
              ]
            batch)
    in
    let elapsed = Unix.gettimeofday () -. start in
    if elapsed > 0. then
      Ax_obs.Metrics.set_gauge (Profile.metrics p) "images_per_sec"
        (float_of_int images /. elapsed);
    Pool.publish pool (Profile.metrics p);
    Profile.publish_gc p;
    out

let run ?(verify = true) ?profile ?domains ?tap ~backend g input =
  (* The one gate for a user-supplied domain count: [make_config]
     already validates the per-layer count, and this keeps the sharded
     path honest too — previously any value slid through to the pool,
     which silently clamped it to a different parallelism than asked
     for. *)
  (match domains with
  | Some d -> Pool.validate_domains ~what:"Emulator.run" d
  | None -> ());
  if verify then
    Ax_analysis.Check.assert_runnable ~input:(Tensor.shape input) g;
  if Shape.((Tensor.shape input).n) = 0 then
    (* An empty batch has nothing to emulate, but it still has a
       well-defined output shape — answer with the empty tensor instead
       of letting per-image sharding fold over zero shards. *)
    Tensor.create (Exec.output_shape g ~input:(Tensor.shape input))
  else
  match domains with
  | Some d -> run_sharded ?profile ?tap ~domains:d ~backend g input
  | None -> (
    let strategy = strategy_of_backend backend in
    match profile with
    | None -> Exec.run ~strategy ?tap g ~input
    | Some p ->
      let images = Shape.((Tensor.shape input).n) in
      let start = Unix.gettimeofday () in
      let out =
        Profile.span profile ~name:"emulator.run"
          ~attrs:
            [
              ("backend", backend_name backend);
              ("images", string_of_int images);
            ]
          (fun () -> Exec.run ~profile:p ~strategy ?tap g ~input)
      in
      let elapsed = Unix.gettimeofday () -. start in
      if elapsed > 0. then
        Ax_obs.Metrics.set_gauge (Profile.metrics p) "images_per_sec"
          (float_of_int images /. elapsed);
      Profile.observe p "emulator_run_seconds" elapsed;
      Profile.publish_gc p;
      out)

let predictions ?verify ?profile ?domains ?tap g ~backend input =
  Layers.argmax_channels (run ?verify ?profile ?domains ?tap ~backend g input)

let accuracy ?verify ?profile ?domains ?tap g ~backend dataset =
  let batch () =
    predictions ?verify ?profile ?domains ?tap g ~backend
      dataset.Ax_data.Cifar.images
  in
  let preds =
    Profile.span profile ~name:"emulator.accuracy"
      ~attrs:
        [ ("images", string_of_int (Array.length dataset.Ax_data.Cifar.labels)) ]
      batch
  in
  let labels = dataset.Ax_data.Cifar.labels in
  if Array.length labels = 0 then invalid_arg "Emulator.accuracy: empty dataset";
  if Array.length preds <> Array.length labels then
    invalid_arg "Emulator.accuracy: prediction/label count mismatch";
  let correct = ref 0 in
  Array.iteri (fun i p -> if p = labels.(i) then incr correct) preds;
  float_of_int !correct /. float_of_int (Array.length labels)

let agreement a b =
  if Array.length a <> Array.length b then
    invalid_arg "Emulator.agreement: length mismatch";
  if Array.length a = 0 then invalid_arg "Emulator.agreement: empty";
  let same = ref 0 in
  Array.iteri (fun i p -> if p = b.(i) then incr same) a;
  float_of_int !same /. float_of_int (Array.length a)

let estimate_gpu_time ?(device = Ax_gpusim.Device.gtx_1080)
    ?(lut_hit_rate = 0.9) ~graph ~input ~images () =
  let workloads = Ax_gpusim.Cost.workloads_of_graph graph ~input ~images in
  let dataset_bytes =
    4. *. float_of_int images
    *. float_of_int
         Ax_tensor.Shape.(input.h * input.w * input.c)
  in
  let weight_bytes =
    float_of_int
      (List.fold_left
         (fun acc w -> acc + (w.Ax_gpusim.Cost.filter_elems * 4))
         0 workloads)
  in
  let init =
    Ax_gpusim.Cost.transfer_init device ~dataset_bytes ~weight_bytes
  in
  let ax_chunk =
    List.find_map
      (fun n ->
        match n.Graph.op with
        | Graph.Ax_conv2d { config; _ }
        | Graph.Ax_depthwise_conv2d { config; _ } ->
          Some config.Axconv.chunk_size
        | _ -> None)
      (Array.to_list (Graph.nodes graph))
  in
  let kernels =
    match ax_chunk with
    | Some chunk_size ->
      `Approximate
        (Ax_gpusim.Cost.approx_network device ~lut_hit_rate ~chunk_size
           workloads)
    | None -> `Accurate (Ax_gpusim.Cost.accurate_network device workloads)
  in
  (kernels, init)
