module Tensor = Ax_tensor.Tensor
module Range = Ax_quant.Range

type value = Tensor of Tensor.t | Scalar of float
type strategy = Cpu_gemm | Cpu_direct

let tensor_of = function
  | Tensor t -> t
  | Scalar _ -> invalid_arg "Exec: expected a tensor value"

let scalar_of = function
  | Scalar s -> s
  | Tensor _ -> invalid_arg "Exec: expected a scalar value"

let strategy_name = function Cpu_gemm -> "cpu-gemm" | Cpu_direct -> "cpu-direct"

let run_all ?profile ?(strategy = Cpu_gemm) ?scratch ?tap g ~input =
  let values : value option array = Array.make (Graph.size g) None in
  let value_of id =
    match values.(id) with
    | Some v -> v
    | None -> invalid_arg "Exec: node evaluated before its input"
  in
  (* The approximate conv [strategy] picks: AxConv2D nodes run it once,
     AxDepthwiseConv2D nodes once per input channel. *)
  let ax_conv ~config ~input ~input_range ~filter ~filter_range ?bias ~spec
      () =
    match strategy with
    | Cpu_gemm ->
      Axconv.conv ?profile ?scratch ~config ~input ~input_range ~filter
        ~filter_range ?bias ~spec ()
    | Cpu_direct ->
      Conv_direct.conv ?profile ~config ~input ~input_range ~filter
        ~filter_range ?bias ~spec ()
  in
  Profile.span profile ~name:"exec.run_all"
    ~attrs:
      [
        ("nodes", string_of_int (Graph.size g));
        ("strategy", strategy_name strategy);
        ("batch", string_of_int Ax_tensor.Shape.((Tensor.shape input).n));
      ]
  @@ fun () ->
  Array.iter
    (fun n ->
      let inputs = List.map value_of n.Graph.inputs in
      let eval () =
        match (n.Graph.op, inputs) with
        | Graph.Input, [] -> Tensor input
        | Graph.Const_scalar v, [] -> Scalar v
        | Graph.Min_reduce, [ v ] ->
          Profile.time profile Profile.Quantization (fun () ->
              Scalar (fst (Tensor.min_max (tensor_of v))))
        | Graph.Max_reduce, [ v ] ->
          Profile.time profile Profile.Quantization (fun () ->
              Scalar (snd (Tensor.min_max (tensor_of v))))
        | Graph.Conv2d { filter; bias; spec }, [ v ] ->
          Tensor
            (Conv_float.gemm ?profile ?scratch ~input:(tensor_of v) ~filter
               ?bias ~spec ())
        | Graph.Ax_conv2d { filter; bias; spec; config },
          [ data; in_min; in_max; f_min; f_max ] ->
          let input_range =
            Range.make ~min:(scalar_of in_min) ~max:(scalar_of in_max)
          in
          let filter_range =
            Range.make ~min:(scalar_of f_min) ~max:(scalar_of f_max)
          in
          Tensor
            (ax_conv ~config ~input:(tensor_of data) ~input_range ~filter
               ~filter_range ?bias ~spec ())
        | Graph.Depthwise_conv2d { filter; bias; spec }, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor
                (Depthwise.float_conv ~input:(tensor_of v) ~filter ?bias
                   ~spec ()))
        | Graph.Ax_depthwise_conv2d { filter; bias; spec; config },
          [ data; in_min; in_max; f_min; f_max ] ->
          let input_range =
            Range.make ~min:(scalar_of in_min) ~max:(scalar_of in_max)
          in
          let filter_range =
            Range.make ~min:(scalar_of f_min) ~max:(scalar_of f_max)
          in
          Tensor
            (Depthwise.approx_conv ?profile ~conv:ax_conv ~config
               ~input:(tensor_of data) ~input_range ~filter ~filter_range
               ?bias ~spec ())
        | Graph.Relu, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.relu (tensor_of v)))
        | Graph.Max_pool { size; stride }, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.max_pool ~size ~stride (tensor_of v)))
        | Graph.Global_avg_pool, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.global_avg_pool (tensor_of v)))
        | Graph.Dense { weights; bias }, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.dense ~weights ~bias (tensor_of v)))
        | Graph.Batch_norm { scale; shift }, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.batch_norm ~scale ~shift (tensor_of v)))
        | Graph.Add, [ a; b ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Tensor.add (tensor_of a) (tensor_of b)))
        | Graph.Softmax, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.softmax (tensor_of v)))
        | Graph.Shortcut_pad { stride; out_c }, [ v ] ->
          Profile.time profile Profile.Other (fun () ->
              Tensor (Layers.shortcut_pad ~stride ~out_c (tensor_of v)))
        | ( ( Graph.Input | Graph.Const_scalar _ | Graph.Min_reduce
            | Graph.Max_reduce | Graph.Conv2d _ | Graph.Ax_conv2d _
            | Graph.Depthwise_conv2d _ | Graph.Ax_depthwise_conv2d _
            | Graph.Relu | Graph.Max_pool _ | Graph.Global_avg_pool
            | Graph.Dense _ | Graph.Batch_norm _ | Graph.Add | Graph.Softmax
            | Graph.Shortcut_pad _ ),
            _ ) ->
          invalid_arg
            (Printf.sprintf "Exec: arity mismatch at node %s" n.Graph.name)
      in
      let timed () =
        Profile.span profile ~name:(Graph.op_name n.Graph.op)
          ~attrs:
            [ ("node", n.Graph.name); ("node_id", string_of_int n.Graph.id) ]
          eval
      in
      let result =
        match profile with
        | None -> timed ()
        | Some p ->
          let start = Unix.gettimeofday () in
          let r = timed () in
          Profile.observe p "exec_node_seconds" (Unix.gettimeofday () -. start);
          r
      in
      (* The activation tap observes (and may rewrite) every
         tensor-valued node output before its consumers see it — the
         hook fault-injection campaigns use to corrupt inter-layer
         activation memory. *)
      let result =
        match (tap, result) with
        | Some f, Tensor t -> Tensor (f n t)
        | (Some _ | None), _ -> result
      in
      values.(n.Graph.id) <- Some result)
    (Graph.nodes g);
  Array.map
    (function
      | Some v -> v
      | None -> invalid_arg "Exec.run_all: unevaluated node")
    values

let run_value ?profile ?strategy ?scratch ?tap g ~input =
  (run_all ?profile ?strategy ?scratch ?tap g ~input).(Graph.output g)

let run ?profile ?strategy ?scratch ?tap g ~input =
  tensor_of (run_value ?profile ?strategy ?scratch ?tap g ~input)

let output_shape g ~input =
  match (Graph.infer_shapes g ~input).(Graph.output g) with
  | Some s -> s
  | None -> invalid_arg "Exec.output_shape: graph output is scalar-valued"
