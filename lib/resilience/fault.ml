module Lut = Ax_arith.Lut
module Graph = Ax_nn.Graph
module Filter = Ax_nn.Filter
module Axconv = Ax_nn.Axconv
module Matrix = Ax_tensor.Matrix
module Tensor = Ax_tensor.Tensor
module Shape = Ax_tensor.Shape

type kind = Bit_flip | Stuck_at of bool

type site =
  | Lut_entry of { index : int; bit : int }
  | Weight of { node : string; index : int; bit : int }
  | Activation of { node : string; index : int; bit : int }

type t = { site : site; kind : kind }

let kind_name = function
  | Bit_flip -> "bit-flip"
  | Stuck_at true -> "stuck-at-1"
  | Stuck_at false -> "stuck-at-0"

let pp_site ppf = function
  | Lut_entry { index; bit } ->
    Format.fprintf ppf "lut[%d].b%d" index bit
  | Weight { node; index; bit } ->
    Format.fprintf ppf "weight[%s:%d].b%d" node index bit
  | Activation { node; index; bit } ->
    Format.fprintf ppf "act[%s:%d].b%d" node index bit

let pp ppf f = Format.fprintf ppf "%s@%a" (kind_name f.kind) pp_site f.site

(* Every fault site is a pure function of (seed, salts) through the
   SplitMix64 finaliser — no hidden RNG state, so campaigns replay
   bit-identically regardless of evaluation order. *)
let hash ~seed salts =
  let golden = Ax_tensor.Rng.golden in
  let step h s =
    Ax_tensor.Rng.mix (Int64.add (Int64.logxor h (Int64.of_int s)) golden)
  in
  let h = List.fold_left step (step golden seed) salts in
  (* top bits of the mix have the best avalanche; keep 62 so the result
     is a non-negative OCaml int on 64-bit platforms *)
  Int64.to_int (Int64.shift_right_logical h 2)

let uniform ~seed salts n =
  if n <= 0 then invalid_arg "Fault.uniform: empty range";
  hash ~seed salts mod n

let bernoulli ~seed salts rate =
  if rate < 0. || rate > 1. then invalid_arg "Fault.bernoulli: rate";
  let bits = hash ~seed salts land ((1 lsl 30) - 1) in
  float_of_int bits /. float_of_int (1 lsl 30) < rate

let apply_int kind ~bit v =
  let mask = 1 lsl bit in
  match kind with
  | Bit_flip -> v lxor mask
  | Stuck_at true -> v lor mask
  | Stuck_at false -> v land lnot mask

let apply_float32 kind ~bit f =
  if bit < 0 || bit > 31 then invalid_arg "Fault.apply_float32: bit";
  let bits = Int32.bits_of_float f in
  let mask = Int32.shift_left 1l bit in
  let bits =
    match kind with
    | Bit_flip -> Int32.logxor bits mask
    | Stuck_at true -> Int32.logor bits mask
    | Stuck_at false -> Int32.logand bits (Int32.lognot mask)
  in
  Int32.float_of_bits bits

(* {1 LUT (texture memory) faults} *)

let corrupt_lut lut faults =
  let c = Lut.copy lut in
  List.iter
    (fun f ->
      match f.site with
      | Lut_entry { index; bit } ->
        if bit < 0 || bit > 15 then
          invalid_arg
            (Printf.sprintf "Fault.corrupt_lut: bit %d outside 0..15" bit);
        Lut.set_raw c index (apply_int f.kind ~bit (Lut.get_raw c index))
      | Weight _ | Activation _ -> ())
    faults;
  c

let random_lut_sites ~seed ~count =
  List.init count (fun i ->
      Lut_entry
        {
          index = uniform ~seed [ i; 0 ] Lut.entries;
          bit = uniform ~seed [ i; 1 ] 16;
        })

let random_flip ~seed ~rate lut =
  let c = Lut.copy lut in
  for index = 0 to Lut.entries - 1 do
    let v = ref (Lut.get_raw c index) in
    for bit = 0 to 15 do
      if bernoulli ~seed [ index; bit ] rate then
        v := apply_int Bit_flip ~bit !v
    done;
    Lut.set_raw c index !v
  done;
  c

let popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0 v

let flip_count a b =
  let n = ref 0 in
  for index = 0 to Lut.entries - 1 do
    n := !n + popcount (Lut.get_raw a index lxor Lut.get_raw b index)
  done;
  !n

(* {1 Weight (parameter memory) faults} *)

let weight_count op =
  match op with
  | Graph.Conv2d { filter; _ }
  | Graph.Ax_conv2d { filter; _ }
  | Graph.Depthwise_conv2d { filter; _ }
  | Graph.Ax_depthwise_conv2d { filter; _ } ->
    Some (Filter.num_weights filter)
  | Graph.Dense { weights; _ } ->
    Some (weights.Matrix.rows * weights.Matrix.cols)
  | Graph.Input | Graph.Const_scalar _ | Graph.Min_reduce | Graph.Max_reduce
  | Graph.Relu | Graph.Max_pool _ | Graph.Global_avg_pool | Graph.Batch_norm _
  | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _ ->
    None

let corrupt_array data faults =
  (* [data] is already a private copy of the caller's *)
  List.iter
    (fun (index, bit, kind) ->
      if index < 0 || index >= Array.length data then
        invalid_arg
          (Printf.sprintf "Fault.corrupt_graph: weight index %d outside [0, %d)"
             index (Array.length data));
      data.(index) <- apply_float32 kind ~bit data.(index))
    faults

let corrupt_filter filter faults =
  let data = Filter.to_array filter in
  corrupt_array data faults;
  Filter.of_array ~kh:(Filter.kh filter) ~kw:(Filter.kw filter)
    ~in_c:(Filter.in_c filter) ~out_c:(Filter.out_c filter) data

let corrupt_matrix (m : Matrix.t) faults =
  let data = Array.copy m.Matrix.data in
  corrupt_array data faults;
  { m with Matrix.data }

let corrupt_graph g faults =
  let by_node =
    List.filter_map
      (fun f ->
        match f.site with
        | Weight { node; index; bit } -> Some (node, (index, bit, f.kind))
        | Lut_entry _ | Activation _ -> None)
      faults
  in
  if by_node = [] then g
  else begin
    let hit = Hashtbl.create 8 in
    let g =
      Graph.map_ops
        (fun n ->
          let mine =
            List.filter_map
              (fun (node, f) -> if node = n.Graph.name then Some f else None)
              by_node
          in
          if mine = [] then n.Graph.op
          else begin
            Hashtbl.replace hit n.Graph.name ();
            match n.Graph.op with
            | Graph.Conv2d { filter; bias; spec } ->
              Graph.Conv2d { filter = corrupt_filter filter mine; bias; spec }
            | Graph.Ax_conv2d { filter; bias; spec; config } ->
              Graph.Ax_conv2d
                { filter = corrupt_filter filter mine; bias; spec; config }
            | Graph.Depthwise_conv2d { filter; bias; spec } ->
              Graph.Depthwise_conv2d
                { filter = corrupt_filter filter mine; bias; spec }
            | Graph.Ax_depthwise_conv2d { filter; bias; spec; config } ->
              Graph.Ax_depthwise_conv2d
                { filter = corrupt_filter filter mine; bias; spec; config }
            | Graph.Dense { weights; bias } ->
              Graph.Dense { weights = corrupt_matrix weights mine; bias }
            | ( Graph.Input | Graph.Const_scalar _ | Graph.Min_reduce
              | Graph.Max_reduce | Graph.Relu | Graph.Max_pool _
              | Graph.Global_avg_pool | Graph.Batch_norm _ | Graph.Add
              | Graph.Softmax | Graph.Shortcut_pad _ ) as op ->
              ignore op;
              invalid_arg
                (Printf.sprintf
                   "Fault.corrupt_graph: node %s has no weight memory"
                   n.Graph.name)
          end)
        g
    in
    List.iter
      (fun (node, _) ->
        if not (Hashtbl.mem hit node) then
          invalid_arg
            (Printf.sprintf "Fault.corrupt_graph: unknown node %s" node))
      by_node;
    g
  end

let random_weight_sites ~seed ~count ~bit g =
  let nodes =
    Array.to_list (Graph.nodes g)
    |> List.filter_map (fun n ->
           match weight_count n.Graph.op with
           | Some w when w > 0 -> Some (n.Graph.name, w)
           | Some _ | None -> None)
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 nodes in
  if total = 0 then
    invalid_arg "Fault.random_weight_sites: graph has no weights";
  List.init count (fun i ->
      let r = uniform ~seed [ i; 2 ] total in
      let rec locate r = function
        | [] -> assert false
        | (node, w) :: rest ->
          if r < w then Weight { node; index = r; bit } else locate (r - w) rest
      in
      locate r nodes)

(* {1 Activation (inter-layer buffer) faults} *)

let tap faults =
  let acts =
    List.filter_map
      (fun f ->
        match f.site with
        | Activation { node; index; bit } -> Some (node, index, bit, f.kind)
        | Lut_entry _ | Weight _ -> None)
      faults
  in
  fun (n : Graph.node) tensor ->
    let mine =
      List.filter_map
        (fun (node, index, bit, kind) ->
          if node = n.Graph.name then Some (index, bit, kind) else None)
        acts
    in
    if mine = [] then tensor
    else begin
      let t = Tensor.copy tensor in
      let shape = Tensor.shape t in
      let per_image = Shape.(shape.h * shape.w * shape.c) in
      List.iter
        (fun (index, bit, kind) ->
          (* a persistent faulty cell in the activation buffer: the same
             per-image offset is hit for every image that flows through,
             whether the batch arrives whole or as per-image shards *)
          let off = index mod per_image in
          for img = 0 to Shape.(shape.n) - 1 do
            let idx = (img * per_image) + off in
            Tensor.set_flat t idx (apply_float32 kind ~bit (Tensor.get_flat t idx))
          done)
        mine;
      t
    end

let random_activation_sites ~seed ~count ~bit g =
  let nodes =
    Array.to_list (Graph.nodes g)
    |> List.filter_map (fun n ->
           match n.Graph.op with
           | Graph.Input | Graph.Const_scalar _ | Graph.Min_reduce
           | Graph.Max_reduce ->
             None
           | Graph.Conv2d _ | Graph.Ax_conv2d _ | Graph.Depthwise_conv2d _
           | Graph.Ax_depthwise_conv2d _ | Graph.Relu | Graph.Max_pool _
           | Graph.Global_avg_pool | Graph.Dense _ | Graph.Batch_norm _
           | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _ ->
             Some n.Graph.name)
  in
  let n_nodes = List.length nodes in
  if n_nodes = 0 then
    invalid_arg "Fault.random_activation_sites: graph has no activations";
  List.init count (fun i ->
      let node = List.nth nodes (uniform ~seed [ i; 3 ] n_nodes) in
      Activation { node; index = uniform ~seed [ i; 4 ] (1 lsl 20); bit })
