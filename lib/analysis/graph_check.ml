module Graph = Ax_nn.Graph
module Shape = Ax_tensor.Shape
module Filter = Ax_nn.Filter
module D = Diagnostic

type kind = Tensor | Scalar

let out_kind = function
  | Graph.Const_scalar _ | Graph.Min_reduce | Graph.Max_reduce -> Scalar
  | Graph.Input | Graph.Conv2d _ | Graph.Ax_conv2d _
  | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _ | Graph.Relu
  | Graph.Max_pool _ | Graph.Global_avg_pool | Graph.Dense _
  | Graph.Batch_norm _ | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _ ->
    Tensor

let in_kinds = function
  | Graph.Ax_conv2d _ | Graph.Ax_depthwise_conv2d _ ->
    [ Tensor; Scalar; Scalar; Scalar; Scalar ]
  | Graph.Add -> [ Tensor; Tensor ]
  | Graph.Input | Graph.Const_scalar _ -> []
  | Graph.Conv2d _ | Graph.Depthwise_conv2d _ | Graph.Min_reduce
  | Graph.Max_reduce | Graph.Relu | Graph.Max_pool _ | Graph.Global_avg_pool
  | Graph.Dense _ | Graph.Batch_norm _ | Graph.Softmax | Graph.Shortcut_pad _
    ->
    [ Tensor ]

let kind_name = function Tensor -> "tensor" | Scalar -> "scalar"

let check ?input g =
  let nodes = Graph.nodes g in
  let n = Array.length nodes in
  let diags = ref [] in
  let emit ~rule ?location msg = diags := D.make ~rule ?location msg :: !diags in
  let loc (node : Graph.node) =
    D.Graph_node { id = node.Graph.id; name = node.Graph.name }
  in
  let describe i =
    if i >= 0 && i < n then
      Printf.sprintf "node %d (%s, %s)" i nodes.(i).Graph.name
        (Graph.op_name nodes.(i).Graph.op)
    else Printf.sprintf "node %d" i
  in

  (* --- structure: ids, ordering, arity --- *)
  let structurally_ok = Array.make n true in
  Array.iteri
    (fun i node ->
      if node.Graph.id <> i then begin
        structurally_ok.(i) <- false;
        emit ~rule:"graph/dangling-input" ~location:(loc node)
          (Printf.sprintf "node id %d stored at position %d" node.Graph.id i)
      end;
      let bad =
        List.filter (fun id -> id < 0 || id >= i) node.Graph.inputs
      in
      if bad <> [] then begin
        structurally_ok.(i) <- false;
        emit ~rule:"graph/dangling-input" ~location:(loc node)
          (Printf.sprintf "references %s %s (nodes are topologically ordered)"
             (if List.length bad = 1 then "unknown or forward input"
              else "unknown or forward inputs")
             (String.concat ", " (List.map string_of_int bad)))
      end;
      let want = Graph.arity node.Graph.op in
      let got = List.length node.Graph.inputs in
      if got <> want then begin
        structurally_ok.(i) <- false;
        emit ~rule:"graph/arity" ~location:(loc node)
          (Printf.sprintf "%s takes %d input(s), %d given"
             (Graph.op_name node.Graph.op)
             want got)
      end)
    nodes;

  (* --- input placeholders --- *)
  let input_nodes =
    Array.to_list nodes
    |> List.filter (fun node ->
           match node.Graph.op with
           | Graph.Input -> true
           | Graph.Conv2d _ | Graph.Ax_conv2d _ | Graph.Depthwise_conv2d _
           | Graph.Ax_depthwise_conv2d _ | Graph.Min_reduce | Graph.Max_reduce
           | Graph.Const_scalar _ | Graph.Relu | Graph.Max_pool _
           | Graph.Global_avg_pool | Graph.Dense _ | Graph.Batch_norm _
           | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _ ->
             false)
  in
  (match input_nodes with
  | [] -> emit ~rule:"graph/no-input" "graph has no Input placeholder"
  | [ _ ] -> ()
  | _ :: extras ->
    List.iter
      (fun node ->
        emit ~rule:"graph/multi-input" ~location:(loc node)
          "additional Input placeholder (the executor binds every Input \
           to the same tensor)")
      extras);

  (* --- output node --- *)
  let out_id = Graph.output g in
  if out_id < 0 || out_id >= n then
    emit ~rule:"graph/dangling-input"
      (Printf.sprintf "output id %d is not a node" out_id)
  else if out_kind nodes.(out_id).Graph.op = Scalar then
    emit ~rule:"graph/scalar-output"
      ~location:(loc nodes.(out_id))
      (Printf.sprintf "graph output is %s" (describe out_id));

  (* --- reachability (dead nodes) --- *)
  (* A single broken reference already makes reachability unreliable
     (the traversal cannot follow the missing edge), so the pass only
     runs on structurally clean graphs — one broken edge must yield one
     diagnostic, not a trail of phantom dead nodes. *)
  let structure_clean = Array.for_all (fun ok -> ok) structurally_ok in
  if structure_clean && out_id >= 0 && out_id < n then begin
    let reached = Array.make n false in
    let rec visit i =
      if i >= 0 && i < n && not reached.(i) then begin
        reached.(i) <- true;
        List.iter visit nodes.(i).Graph.inputs
      end
    in
    visit out_id;
    Array.iteri
      (fun i node ->
        if not reached.(i) then
          emit ~rule:"graph/dead-node" ~location:(loc node)
            "never contributes to the graph output")
      nodes
  end;

  (* --- value kinds at every port --- *)
  let kinds_ok = Array.make n true in
  Array.iteri
    (fun i node ->
      if structurally_ok.(i) then
        List.iteri
          (fun port (want, src) ->
            let actual = out_kind nodes.(src).Graph.op in
            if actual <> want then begin
              kinds_ok.(i) <- false;
              let rule =
                match want with
                | Tensor -> "graph/scalar-as-tensor"
                | Scalar -> "graph/tensor-as-scalar"
              in
              emit ~rule ~location:(loc node)
                (Printf.sprintf "input %d is %s, which is %s-valued" port
                   (describe src) (kind_name actual))
            end)
          (List.combine (in_kinds node.Graph.op) node.Graph.inputs))
    nodes;

  (* --- Fig. 1 wiring lint --- *)
  let const_of i =
    match nodes.(i).Graph.op with
    | Graph.Const_scalar v -> Some v
    | Graph.Input | Graph.Conv2d _ | Graph.Ax_conv2d _
    | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _
    | Graph.Min_reduce | Graph.Max_reduce | Graph.Relu | Graph.Max_pool _
    | Graph.Global_avg_pool | Graph.Dense _ | Graph.Batch_norm _ | Graph.Add
    | Graph.Softmax | Graph.Shortcut_pad _ ->
      None
  in
  let lint_ax node ~filter =
    match node.Graph.inputs with
    | [ data; imin; imax; fmin; fmax ] ->
      let reduce_src i =
        match nodes.(i).Graph.inputs with [ s ] -> Some s | [] | _ :: _ -> None
      in
      let swapped =
        (match nodes.(imin).Graph.op with Graph.Max_reduce -> true | _ -> false)
        && match nodes.(imax).Graph.op with
           | Graph.Min_reduce -> true
           | _ -> false
      in
      if swapped then
        emit ~rule:"ax/swapped-range" ~location:(loc node)
          (Printf.sprintf "input range ports read %s and %s in that order"
             (describe imin) (describe imax))
      else begin
        (match nodes.(imin).Graph.op with
        | Graph.Min_reduce -> (
          match reduce_src imin with
          | Some src when src <> data ->
            emit ~rule:"ax/wrong-tensor" ~location:(loc node)
              (Printf.sprintf
                 "min reduction %s reads %s but the layer data is %s"
                 (describe imin) (describe src) (describe data))
          | Some _ | None -> ())
        | Graph.Const_scalar _ -> ()
        | Graph.Max_reduce | Graph.Input | Graph.Conv2d _ | Graph.Ax_conv2d _
        | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _ | Graph.Relu
        | Graph.Max_pool _ | Graph.Global_avg_pool | Graph.Dense _
        | Graph.Batch_norm _ | Graph.Add | Graph.Softmax
        | Graph.Shortcut_pad _ ->
          emit ~rule:"ax/min-feed" ~location:(loc node)
            (Printf.sprintf "input-range minimum comes from %s"
               (describe imin)));
        (match nodes.(imax).Graph.op with
        | Graph.Max_reduce -> (
          match reduce_src imax with
          | Some src when src <> data ->
            emit ~rule:"ax/wrong-tensor" ~location:(loc node)
              (Printf.sprintf
                 "max reduction %s reads %s but the layer data is %s"
                 (describe imax) (describe src) (describe data))
          | Some _ | None -> ())
        | Graph.Const_scalar _ -> ()
        | Graph.Min_reduce | Graph.Input | Graph.Conv2d _ | Graph.Ax_conv2d _
        | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _ | Graph.Relu
        | Graph.Max_pool _ | Graph.Global_avg_pool | Graph.Dense _
        | Graph.Batch_norm _ | Graph.Add | Graph.Softmax
        | Graph.Shortcut_pad _ ->
          emit ~rule:"ax/max-feed" ~location:(loc node)
            (Printf.sprintf "input-range maximum comes from %s"
               (describe imax)))
      end;
      (match (const_of imin, const_of imax) with
      | Some lo, Some hi when lo > hi ->
        emit ~rule:"ax/empty-range" ~location:(loc node)
          (Printf.sprintf "constant input range [%g, %g] is empty" lo hi)
      | Some _, Some _ ->
        emit ~rule:"ax/const-input-range" ~location:(loc node)
          "input range is constant rather than computed per batch"
      | Some _, None | None, Some _ ->
        emit ~rule:"ax/const-input-range" ~location:(loc node)
          "input range mixes a constant with a reduction"
      | None, None -> ());
      (match (const_of fmin, const_of fmax) with
      | Some lo, Some hi ->
        if lo > hi then
          emit ~rule:"ax/empty-range" ~location:(loc node)
            (Printf.sprintf "constant filter range [%g, %g] is empty" lo hi)
        else begin
          let amin, amax = Filter.min_max filter in
          if lo > amin || hi < amax then
            emit ~rule:"ax/filter-range-stale" ~location:(loc node)
              (Printf.sprintf
                 "constant filter range [%g, %g] does not cover the actual \
                  weight range [%g, %g]"
                 lo hi amin amax)
        end
      | (Some _ | None), _ -> ())
    | _ -> () (* arity already reported *)
  in
  Array.iteri
    (fun i node ->
      if structurally_ok.(i) && kinds_ok.(i) then
        match node.Graph.op with
        | Graph.Ax_conv2d { filter; _ } | Graph.Ax_depthwise_conv2d { filter; _ }
          ->
          lint_ax node ~filter
        | Graph.Input | Graph.Conv2d _ | Graph.Depthwise_conv2d _
        | Graph.Min_reduce | Graph.Max_reduce | Graph.Const_scalar _
        | Graph.Relu | Graph.Max_pool _ | Graph.Global_avg_pool | Graph.Dense _
        | Graph.Batch_norm _ | Graph.Add | Graph.Softmax | Graph.Shortcut_pad _
          ->
          ())
    nodes;

  (* --- shape-and-channel inference --- *)
  (match input with
  | None -> ()
  | Some input_shape ->
    (* [shapes.(i)] is the inferred tensor shape (None for scalars);
       [valid.(i)] false poisons consumers so one defect is reported
       once, at its source.  The shape rule itself is
       [Graph.node_shape]; its [Invalid_argument] message is the
       finding. *)
    let shapes : Shape.t option array = Array.make n None in
    let shape_of id = shapes.(id) in
    let valid = Array.make n false in
    let bias_check node ~len ~what b =
      if Array.length b <> len then
        emit ~rule:"graph/bias-arity" ~location:(loc node)
          (Printf.sprintf "bias has %d entries for %d %s" (Array.length b)
             len what)
    in
    Array.iteri
      (fun i node ->
        if
          structurally_ok.(i) && kinds_ok.(i)
          && List.for_all (fun s -> valid.(s)) node.Graph.inputs
        then begin
          (match node.Graph.op with
          | Graph.Conv2d { filter; bias = Some b; _ }
          | Graph.Ax_conv2d { filter; bias = Some b; _ } ->
            bias_check node ~len:(Filter.out_c filter) ~what:"output channels" b
          | Graph.Depthwise_conv2d { filter; bias = Some b; _ }
          | Graph.Ax_depthwise_conv2d { filter; bias = Some b; _ } ->
            bias_check node
              ~len:(Filter.in_c filter * Filter.out_c filter)
              ~what:"output channels" b
          | Graph.Dense { weights; bias } ->
            bias_check node ~len:weights.Ax_tensor.Matrix.cols ~what:"outputs"
              bias
          | Graph.Input | Graph.Conv2d _ | Graph.Ax_conv2d _
          | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _
          | Graph.Min_reduce | Graph.Max_reduce | Graph.Const_scalar _
          | Graph.Relu | Graph.Max_pool _ | Graph.Global_avg_pool
          | Graph.Batch_norm _ | Graph.Add | Graph.Softmax
          | Graph.Shortcut_pad _ ->
            ());
          match Graph.node_shape ~input:input_shape shape_of node with
          | s ->
            shapes.(i) <- s;
            valid.(i) <- true
          | exception Invalid_argument m ->
            emit ~rule:"graph/shape-mismatch" ~location:(loc node) m
        end)
      nodes);

  List.rev !diags
