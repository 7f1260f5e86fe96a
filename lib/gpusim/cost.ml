module Shape = Ax_tensor.Shape
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Graph = Ax_nn.Graph
module Profile = Ax_nn.Profile

type conv_workload = {
  label : string;
  images : int;
  rows_per_image : int;
  taps : int;
  out_c : int;
  in_elems_per_image : int;
  out_elems_per_image : int;
  filter_elems : int;
}

let workload ?(label = "conv") ~input ~filter ~spec ~images () =
  let out = Conv_spec.output_shape spec input filter in
  {
    label;
    images;
    rows_per_image = Shape.(out.h) * Shape.(out.w);
    taps = Filter.taps filter;
    out_c = Filter.out_c filter;
    in_elems_per_image = Shape.(input.h) * Shape.(input.w) * Shape.(input.c);
    out_elems_per_image = Shape.(out.h) * Shape.(out.w) * Shape.(out.c);
    filter_elems = Filter.num_weights filter;
  }

let workloads_of_graph g ~input ~images =
  let shapes = Graph.infer_shapes g ~input in
  List.filter_map
    (fun n ->
      match n.Graph.op with
      | Graph.Conv2d { filter; spec; _ } | Graph.Ax_conv2d { filter; spec; _ }
        ->
        let in_shape =
          match shapes.(List.nth n.Graph.inputs 0) with
          | Some s -> s
          | None -> invalid_arg "Cost.workloads_of_graph: conv over scalar"
        in
        Some (workload ~label:n.Graph.name ~input:in_shape ~filter ~spec ~images ())
      | Graph.Depthwise_conv2d { filter; spec; _ }
      | Graph.Ax_depthwise_conv2d { filter; spec; _ } ->
        let in_shape =
          match shapes.(List.nth n.Graph.inputs 0) with
          | Some s -> s
          | None -> invalid_arg "Cost.workloads_of_graph: conv over scalar"
        in
        let out = Ax_nn.Depthwise.output_shape ~spec in_shape filter in
        Some
          {
            label = n.Graph.name;
            images;
            rows_per_image = Shape.(out.h) * Shape.(out.w);
            taps = Filter.kh filter * Filter.kw filter;
            out_c = Shape.(out.c);
            in_elems_per_image =
              Shape.(in_shape.h) * Shape.(in_shape.w) * Shape.(in_shape.c);
            out_elems_per_image = Shape.(out.h) * Shape.(out.w) * Shape.(out.c);
            filter_elems = Filter.num_weights filter;
          }
      | Graph.Input | Graph.Min_reduce | Graph.Max_reduce
      | Graph.Const_scalar _ | Graph.Relu | Graph.Max_pool _
      | Graph.Global_avg_pool | Graph.Dense _ | Graph.Batch_norm _
      | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _ ->
        None)
    (Array.to_list (Graph.nodes g))

let lut_lookups w =
  float_of_int w.images *. float_of_int w.rows_per_image
  *. float_of_int w.taps *. float_of_int w.out_c

let total_macs ws = List.fold_left (fun acc w -> acc +. lut_lookups w) 0. ws

type phases = {
  init_s : float;
  quantization_s : float;
  lut_s : float;
  other_s : float;
}

let zero = { init_s = 0.; quantization_s = 0.; lut_s = 0.; other_s = 0. }
let total p = p.init_s +. p.quantization_s +. p.lut_s +. p.other_s

let add a b =
  {
    init_s = a.init_s +. b.init_s;
    quantization_s = a.quantization_s +. b.quantization_s;
    lut_s = a.lut_s +. b.lut_s;
    other_s = a.other_s +. b.other_s;
  }

let breakdown p =
  let t = total p in
  if t <= 0. then
    {
      Profile.init_pct = 0.;
      quantization_pct = 0.;
      lut_pct = 0.;
      other_pct = 0.;
    }
  else
    {
      Profile.init_pct = 100. *. p.init_s /. t;
      quantization_pct = 100. *. p.quantization_s /. t;
      lut_pct = 100. *. p.lut_s /. t;
      other_pct = 100. *. p.other_s /. t;
    }

let gb = 1e9

let transfer_init d ~dataset_bytes ~weight_bytes =
  let xfer =
    (dataset_bytes +. weight_bytes +. float_of_int Ax_arith.Lut.size_bytes)
    /. (d.Device.pcie_bandwidth_gbps *. gb)
  in
  { zero with init_s = d.Device.context_setup_s +. xfer }

(* GEMM tile edge used for shared-memory traffic accounting; matches the
   32x32 tiles typical of a tuned kernel. *)
let tile = 32.

(* Per-layer reusable quantities. *)
let images w = float_of_int w.images
let rows w = images w *. float_of_int w.rows_per_image

let patch_bytes w = rows w *. float_of_int w.taps (* one byte per code *)

(* cuDNN-style accurate convolution: implicit-GEMM float kernel. *)
let accurate_layer d w =
  let macs = lut_lookups w in
  let compute = macs /. (Device.peak_flops d *. d.Device.gemm_efficiency) in
  (* float input read + float output write, streamed near peak *)
  let traffic =
    4. *. (images w *. float_of_int (w.in_elems_per_image + w.out_elems_per_image))
  in
  let mem = traffic /. (d.Device.mem_bandwidth_gbps *. gb *. 0.7) in
  { zero with other_s = Float.max compute mem }

let accurate_network d ws =
  let body = List.fold_left (fun acc w -> add acc (accurate_layer d w)) zero ws in
  let launches =
    float_of_int (List.length ws) *. d.Device.kernel_launch_overhead_s
  in
  add body { zero with other_s = launches }

(* The AxConv2D pipeline for one layer, per Algorithm 1:
   - min/max reduction over the input (quantization phase);
   - Im2Cols: read floats, quantize to codes, write the patch matrix and
     the Sp prefix sums (quantize pass charged to quantization, patch
     expansion to other);
   - ApproxGEMM: tile loads + one LUT fetch per MAC (lut phase) + index
     stitching and accumulation ALU work (other);
   - dequantization with Eq. 4 corrections (quantization phase). *)
let approx_layer d ~hit_rate w =
  let bw = d.Device.mem_bandwidth_gbps *. gb in
  let in_bytes = 4. *. images w *. float_of_int w.in_elems_per_image in
  let out_bytes = 4. *. images w *. float_of_int w.out_elems_per_image in
  (* min/max: tree reduction, streams the input once near peak. *)
  let minmax_s = in_bytes /. (bw *. 0.7) in
  (* quantize pass of Im2Cols: elementwise read-float/write-code with
     scan bookkeeping — latency-bound, hence the low efficiency. *)
  let quantize_s =
    (in_bytes +. (in_bytes /. 4.))
    /. (bw *. d.Device.elementwise_efficiency)
  in
  (* patch expansion: each code lands in the patch matrix once; GEMM
     re-reads each tile column out_c/tile times. *)
  let expand_bytes =
    patch_bytes w *. (1. +. Float.max 1. (float_of_int w.out_c /. tile))
  in
  let expand_s = expand_bytes /. (bw *. 0.5) in
  (* LUT fetches through the texture path. *)
  let lookups = lut_lookups w in
  let miss_rate = 1. -. hit_rate in
  let lut_s =
    lookups
    /. Device.peak_lut_rate d
    *. (1. +. (miss_rate *. d.Device.tex_miss_penalty_factor))
  in
  (* Index stitching + 32-bit accumulate: ~4 ALU ops per MAC. *)
  let alu_s =
    4. *. lookups /. (Device.peak_flops d *. d.Device.gemm_efficiency)
  in
  (* Dequantize + Eq.4 corrections: one fused pass over the output. *)
  let dequant_s = out_bytes /. (bw *. d.Device.elementwise_efficiency *. 4.) in
  {
    init_s = 0.;
    quantization_s = minmax_s +. quantize_s +. dequant_s;
    lut_s;
    other_s = expand_s +. alu_s;
  }

let approx_network d ?(lut_hit_rate = 0.9) ~chunk_size ws =
  if chunk_size <= 0 then invalid_arg "Cost.approx_network: chunk_size";
  if lut_hit_rate < 0. || lut_hit_rate > 1. then
    invalid_arg "Cost.approx_network: lut_hit_rate out of [0,1]";
  let body =
    List.fold_left
      (fun acc w -> add acc (approx_layer d ~hit_rate:lut_hit_rate w))
      zero ws
  in
  (* Four kernels per layer per chunk: minmax, im2col, gemm, dequant. *)
  let launches =
    List.fold_left
      (fun acc w ->
        let chunks = (w.images + chunk_size - 1) / chunk_size in
        acc +. (4. *. float_of_int chunks))
      0. ws
  in
  add body { zero with other_s = launches *. d.Device.kernel_launch_overhead_s }

let per_layer d ?(lut_hit_rate = 0.9) ~chunk_size ws =
  if chunk_size <= 0 then invalid_arg "Cost.per_layer: chunk_size";
  List.map
    (fun w ->
      let body = approx_layer d ~hit_rate:lut_hit_rate w in
      let chunks = (w.images + chunk_size - 1) / chunk_size in
      let launches = 4. *. float_of_int chunks in
      ( w.label,
        add body
          { zero with other_s = launches *. d.Device.kernel_launch_overhead_s }
      ))
    ws

let measure_hit_rate ?metrics d ~mp ~mf_t ~rows ~taps ~out_c ~sample_rows =
  if Bytes.length mp < rows * taps then
    invalid_arg "Cost.measure_hit_rate: mp smaller than rows*taps";
  if Bytes.length mf_t < out_c * taps then
    invalid_arg "Cost.measure_hit_rate: mf_t smaller than out_c*taps";
  let cache = Texcache.of_device d in
  let sample = min sample_rows rows in
  (* Replay in tiled order: for each row tile x filter, walk the
     reduction dimension — the order the GEMM kernel issues fetches. *)
  for row = 0 to sample - 1 do
    for k = 0 to out_c - 1 do
      for p = 0 to taps - 1 do
        let ca = Bytes.get_uint8 mp ((row * taps) + p) in
        let cb = Bytes.get_uint8 mf_t ((k * taps) + p) in
        ignore (Texcache.access cache (Texcache.lut_address ca cb))
      done
    done
  done;
  Option.iter (Texcache.publish cache) metrics;
  Texcache.hit_rate cache
