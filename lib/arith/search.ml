type candidate = {
  mask : bool array;
  kept : int;
  metrics : Error_metrics.t;
  area_proxy : float;
}

let bits = 8
let mask_size = bits * bits

let full_mask () = Array.make mask_size true

let truncation_mask ~cut =
  Array.init mask_size (fun idx ->
      let i = idx / bits and j = idx mod bits in
      i + j >= cut)

let multiply_of_mask mask =
  Truncation.pruned ~bits ~keep:(fun i j -> mask.((i * bits) + j))

(* Each kept partial product costs roughly one AND gate plus its share
   of the compression tree (~a full adder): ~ 6 + 28/2 transistors. *)
let area_proxy_of_mask mask =
  let kept = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
  20. *. float_of_int kept

let evaluate mask =
  if Array.length mask <> mask_size then
    invalid_arg "Search.evaluate: mask must have 64 entries";
  let metrics =
    Error_metrics.compute Signedness.Unsigned (multiply_of_mask mask)
  in
  {
    mask = Array.copy mask;
    kept = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask;
    metrics;
    area_proxy = area_proxy_of_mask mask;
  }

let netlist_of candidate =
  let mask = candidate.mask in
  Ax_netlist.Multipliers.pruned ~bits
    ~keep:(fun i j -> mask.((i * bits) + j))
    ~name:(Printf.sprintf "mul8u_searched_%d" candidate.kept)

let hardware_of candidate =
  Ax_netlist.Power.analyze (netlist_of candidate).Ax_netlist.Multipliers.circuit

(* MAE of a mask can be computed incrementally: dropping product (i,j)
   removes value 2^(i+j) whenever a_i = b_j = 1, i.e. in exactly
   65536/4 input pairs, always reducing the result.  The *marginal* MAE
   of a drop therefore composes additively across drops:
   E[|error|] = sum over dropped (i,j) of 2^(i+j) * P(a_i=1)*P(b_j=1)
   because all drops push in the same (negative) direction.  This makes
   greedy pruning by weight exact without re-sweeping per candidate —
   but we still sweep for the *recorded* candidates so the reported
   metrics carry WCE, bias etc. *)
let greedy_prune ?(max_mae = 1000.) () =
  let mask = full_mask () in
  let trajectory = ref [ evaluate mask ] in
  let continue_ = ref true in
  while !continue_ do
    (* Cheapest drop = smallest weight 2^(i+j) still kept. *)
    let best = ref (-1) and best_weight = ref infinity in
    Array.iteri
      (fun idx keep ->
        if keep then begin
          let i = idx / bits and j = idx mod bits in
          let weight = 2. ** float_of_int (i + j) in
          if weight < !best_weight then begin
            best_weight := weight;
            best := idx
          end
        end)
      mask;
    if !best < 0 then continue_ := false
    else begin
      mask.(!best) <- false;
      let candidate = evaluate mask in
      if candidate.metrics.Error_metrics.mae > max_mae then begin
        mask.(!best) <- true;
        continue_ := false
      end
      else trajectory := candidate :: !trajectory
    end
  done;
  List.rev !trajectory

let dominates a b =
  a.metrics.Error_metrics.mae <= b.metrics.Error_metrics.mae
  && a.area_proxy <= b.area_proxy
  && (a.metrics.Error_metrics.mae < b.metrics.Error_metrics.mae
     || a.area_proxy < b.area_proxy)

let pareto_front candidates =
  let survivors =
    List.filter
      (fun c -> not (List.exists (fun d -> dominates d c) candidates))
      candidates
  in
  List.sort (fun a b -> compare a.area_proxy b.area_proxy) survivors

(* Tiny local xorshift; keeps ax_arith free of a tensor-library
   dependency just for mask sampling. *)
let xorshift seed =
  let state = ref (if seed = 0 then 0x2545F491 else seed) in
  fun () ->
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x land max_int;
    !state

let random_candidates ?(seed = 1) ~samples () =
  if samples <= 0 then invalid_arg "Search.random_candidates: samples";
  let rng = xorshift seed in
  List.init samples (fun _ ->
      let mask =
        Array.init mask_size (fun idx ->
            idx = mask_size - 1 || rng () land 1 = 1)
      in
      evaluate mask)
