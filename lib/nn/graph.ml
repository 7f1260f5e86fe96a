module Shape = Ax_tensor.Shape

type node_id = int

type op =
  | Input
  | Conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
    }
  | Ax_conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
      config : Axconv.config;
    }
  | Depthwise_conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
    }
  | Ax_depthwise_conv2d of {
      filter : Filter.t;
      bias : float array option;
      spec : Conv_spec.t;
      config : Axconv.config;
    }
  | Min_reduce
  | Max_reduce
  | Const_scalar of float
  | Relu
  | Max_pool of { size : int; stride : int }
  | Global_avg_pool
  | Dense of { weights : Ax_tensor.Matrix.t; bias : float array }
  | Batch_norm of { scale : float array; shift : float array }
  | Add
  | Softmax
  | Shortcut_pad of { stride : int; out_c : int }

type node = { id : node_id; name : string; op : op; inputs : node_id list }

type t = { all : node array; output_id : node_id }

let arity = function
  | Input | Const_scalar _ -> 0
  | Conv2d _ | Depthwise_conv2d _ | Min_reduce | Max_reduce | Relu
  | Max_pool _ | Global_avg_pool | Dense _ | Batch_norm _ | Softmax
  | Shortcut_pad _ ->
    1
  | Add -> 2
  | Ax_conv2d _ | Ax_depthwise_conv2d _ -> 5

let op_name = function
  | Input -> "Input"
  | Conv2d _ -> "Conv2D"
  | Ax_conv2d _ -> "AxConv2D"
  | Depthwise_conv2d _ -> "DepthwiseConv2D"
  | Ax_depthwise_conv2d _ -> "AxDepthwiseConv2D"
  | Min_reduce -> "Min"
  | Max_reduce -> "Max"
  | Const_scalar _ -> "Const"
  | Relu -> "Relu"
  | Max_pool _ -> "MaxPool"
  | Global_avg_pool -> "GlobalAvgPool"
  | Dense _ -> "Dense"
  | Batch_norm _ -> "BatchNorm"
  | Add -> "Add"
  | Softmax -> "Softmax"
  | Shortcut_pad _ -> "ShortcutPad"

type builder = { mutable rev_nodes : node list; mutable count : int }

let builder () = { rev_nodes = []; count = 0 }

let add b ~name op inputs =
  if List.length inputs <> arity op then
    Nn_error.(error
      (Arity_mismatch
         {
           op = op_name op;
           node = name;
           expected = arity op;
           got = List.length inputs;
         }));
  List.iter
    (fun i ->
      if i < 0 || i >= b.count then
        Nn_error.(error (Unknown_input { op = op_name op; node = name; input = i })))
    inputs;
  let id = b.count in
  b.rev_nodes <- { id; name; op; inputs } :: b.rev_nodes;
  b.count <- b.count + 1;
  id

let finalize b ~output =
  if output < 0 || output >= b.count then
    Nn_error.(error (Unknown_output { output; size = b.count }));
  { all = Array.of_list (List.rev b.rev_nodes); output_id = output }

let of_nodes_unchecked ~output all = { all = Array.of_list all; output_id = output }

let nodes t = t.all
let output t = t.output_id

let node t id =
  if id < 0 || id >= Array.length t.all then
    invalid_arg "Graph.node: unknown id";
  t.all.(id)

let size t = Array.length t.all

let find_by_name t name =
  Array.find_opt (fun n -> n.name = name) t.all

let map_ops f t =
  let all =
    Array.map
      (fun n ->
        let op = f n in
        if arity op <> arity n.op then
          Nn_error.(error
            (Op_rewrite
               { node = n.name; from_op = op_name n.op; to_op = op_name op }));
        { n with op })
      t.all
  in
  { t with all }

let conv_layers t =
  Array.to_list t.all
  |> List.filter (fun n ->
         match n.op with
         | Conv2d _ | Ax_conv2d _ | Depthwise_conv2d _
         | Ax_depthwise_conv2d _ ->
           true
         | Input | Min_reduce | Max_reduce | Const_scalar _ | Relu
         | Max_pool _ | Global_avg_pool | Dense _ | Batch_norm _ | Add
         | Softmax | Shortcut_pad _ ->
           false)

(* Kept out of [node_shape] so that [tensor] there is small enough to
   inline and the rule allocates no closure per node: the verifier runs
   it on every node of every graph [Emulator.run] pre-flights. *)
let input_shape shape_of n k =
  match shape_of (List.nth n.inputs k) with
  | Some s -> s
  | None -> invalid_arg "scalar where a tensor is required"

let node_shape ~input shape_of n =
  let tensor k = input_shape shape_of n k in
  match n.op with
  | Input -> Some input
  | Const_scalar _ | Min_reduce | Max_reduce -> None
  | Conv2d { filter; spec; _ } | Ax_conv2d { filter; spec; _ } ->
    Some (Conv_spec.output_shape spec (tensor 0) filter)
  | Depthwise_conv2d { filter; spec; _ }
  | Ax_depthwise_conv2d { filter; spec; _ } ->
    Some (Depthwise.output_shape ~spec (tensor 0) filter)
  | Relu | Softmax -> Some (tensor 0)
  | Batch_norm { scale; shift } ->
    let s = tensor 0 in
    let c = Shape.(s.c) in
    if Array.length scale <> c || Array.length shift <> c then
      invalid_arg
        (Printf.sprintf "batch-norm parameters have %d/%d entries for %d \
                         channels"
           (Array.length scale) (Array.length shift) c);
    Some s
  | Max_pool { size; stride } ->
    let s = tensor 0 in
    let h = Shape.(s.h) and w = Shape.(s.w) in
    if size <= 0 || stride <= 0 then
      invalid_arg "pool size and stride must be positive";
    if h < size || w < size then
      invalid_arg
        (Printf.sprintf "%dx%d window over %dx%d input" size size h w);
    Some
      (Shape.make ~n:Shape.(s.n)
         ~h:(((h - size) / stride) + 1)
         ~w:(((w - size) / stride) + 1)
         ~c:Shape.(s.c))
  | Global_avg_pool ->
    let s = tensor 0 in
    Some (Shape.make ~n:Shape.(s.n) ~h:1 ~w:1 ~c:Shape.(s.c))
  | Dense { weights; _ } ->
    let s = tensor 0 in
    let features = Shape.(s.h * s.w * s.c) in
    let rows = weights.Ax_tensor.Matrix.rows in
    if rows <> features then
      invalid_arg
        (Printf.sprintf "%d features but weights have %d rows" features rows);
    Some
      (Shape.make ~n:Shape.(s.n) ~h:1 ~w:1 ~c:weights.Ax_tensor.Matrix.cols)
  | Add ->
    let a = tensor 0 and b = tensor 1 in
    if not (Shape.equal a b) then
      invalid_arg
        (Printf.sprintf "residual join of %s with %s" (Shape.to_string a)
           (Shape.to_string b));
    Some a
  | Shortcut_pad { stride; out_c } ->
    let s = tensor 0 in
    let h = Shape.(s.h) and w = Shape.(s.w) and c = Shape.(s.c) in
    if stride <= 0 then invalid_arg "shortcut stride must be positive";
    if out_c < c then
      invalid_arg
        (Printf.sprintf "shortcut cannot shrink %d channels to %d" c out_c);
    Some
      (Shape.make ~n:Shape.(s.n)
         ~h:((h + stride - 1) / stride)
         ~w:((w + stride - 1) / stride)
         ~c:out_c)

let infer_shapes t ~input =
  let shapes = Array.make (size t) None in
  let shape_of id = shapes.(id) in
  Array.iter (fun n -> shapes.(n.id) <- node_shape ~input shape_of n) t.all;
  shapes

let total_macs t ~input =
  let shapes = infer_shapes t ~input in
  Array.fold_left
    (fun acc n ->
      match n.op with
      | Conv2d { filter; spec; _ } | Ax_conv2d { filter; spec; _ } ->
        let in_shape =
          match shapes.(List.nth n.inputs 0) with
          | Some s -> s
          | None -> invalid_arg "Graph.total_macs: conv over scalar"
        in
        acc + Conv_spec.macs spec in_shape filter
      | Depthwise_conv2d { filter; spec; _ }
      | Ax_depthwise_conv2d { filter; spec; _ } ->
        let in_shape =
          match shapes.(List.nth n.inputs 0) with
          | Some s -> s
          | None -> invalid_arg "Graph.total_macs: conv over scalar"
        in
        acc + Depthwise.macs ~spec in_shape filter
      | Input | Min_reduce | Max_reduce | Const_scalar _ | Relu | Max_pool _
      | Global_avg_pool | Dense _ | Batch_norm _ | Add | Softmax
      | Shortcut_pad _ ->
        acc)
    0 t.all

let to_dot t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "digraph model {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";
  Array.iter
    (fun n ->
      let shape, fill =
        match n.op with
        | Ax_conv2d _ | Ax_depthwise_conv2d _ -> ("box", "#f4cccc")
        | Conv2d _ | Depthwise_conv2d _ -> ("box", "#cfe2f3")
        | Min_reduce | Max_reduce | Const_scalar _ -> ("ellipse", "#fff2cc")
        | Input -> ("parallelogram", "#d9ead3")
        | Relu | Max_pool _ | Global_avg_pool | Dense _ | Batch_norm _ | Add
        | Softmax | Shortcut_pad _ ->
          ("box", "#ffffff")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  n%d [label=\"%s\\n%s\", shape=%s, style=filled, fillcolor=\"%s\"%s];\n"
           n.id n.name (op_name n.op) shape fill
           (if n.id = t.output_id then ", penwidth=2" else ""));
      List.iter
        (fun src -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" src n.id))
        n.inputs)
    t.all;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_summary ppf t =
  Array.iter
    (fun n ->
      Format.fprintf ppf "%3d %-24s %-13s <- %s@."
        n.id n.name (op_name n.op)
        (String.concat ", " (List.map string_of_int n.inputs)))
    t.all
