type report = {
  area : float;
  delay : float;
  power : float;
  gates : int;
  pdp : float;
}

(* Static CMOS transistor counts. *)
let area_of_gate = function
  | Gate.Input _ | Gate.Const _ | Gate.Buf _ -> 0.
  | Gate.Not _ -> 2.
  | Gate.Nand2 _ | Gate.Nor2 _ -> 4.
  | Gate.And2 _ | Gate.Or2 _ -> 6.
  | Gate.Xor2 _ | Gate.Xnor2 _ -> 8.

(* Normalised logical-effort delays (FO4-ish relative units). *)
let delay_of_gate = function
  | Gate.Input _ | Gate.Const _ | Gate.Buf _ -> 0.
  | Gate.Not _ -> 1.
  | Gate.Nand2 _ | Gate.Nor2 _ -> 1.
  | Gate.And2 _ | Gate.Or2 _ -> 1.5
  | Gate.Xor2 _ | Gate.Xnor2 _ -> 2.

let signal_probabilities c =
  let p = Array.make (Circuit.node_count c) 0.5 in
  Circuit.iter_gates c (fun i g ->
      let prob j = p.(j) in
      p.(i) <-
        (match g with
        | Gate.Input _ -> 0.5
        | Gate.Const b -> if b then 1. else 0.
        | Gate.Buf a -> prob a
        | Gate.Not a -> 1. -. prob a
        | Gate.And2 (a, b) -> prob a *. prob b
        | Gate.Or2 (a, b) -> prob a +. prob b -. (prob a *. prob b)
        | Gate.Nand2 (a, b) -> 1. -. (prob a *. prob b)
        | Gate.Nor2 (a, b) -> 1. -. (prob a +. prob b -. (prob a *. prob b))
        | Gate.Xor2 (a, b) ->
          let pa = prob a and pb = prob b in
          (pa *. (1. -. pb)) +. (pb *. (1. -. pa))
        | Gate.Xnor2 (a, b) ->
          let pa = prob a and pb = prob b in
          1. -. ((pa *. (1. -. pb)) +. (pb *. (1. -. pa)))));
  p

let exact_inputs_limit = Sim.exhaustive_inputs_limit

let probabilities_of_sweep (s : Sim.sweep) =
  let total = float_of_int s.Sim.patterns in
  Array.map (fun ones -> float_of_int ones /. total) s.Sim.ones

let exact_signal_probabilities c =
  let bits = Circuit.input_count c in
  if bits > exact_inputs_limit then
    invalid_arg
      (Printf.sprintf
         "Power.exact_signal_probabilities: %d inputs exceed the %d-input \
          exhaustive-sweep limit"
         bits exact_inputs_limit);
  probabilities_of_sweep (Sim.exhaustive ~table:false c)

let monte_carlo_signal_probabilities ~seed ~samples c =
  if samples <= 0 then
    invalid_arg "Power.monte_carlo_signal_probabilities: samples must be > 0";
  (* One independent 64-lane word per (sweep, input) cell, so every
     lane is an independent uniform test vector and the whole estimate
     is a pure function of [seed]. *)
  let rng =
    Ax_tensor.Rng.of_state
      (Int64.logxor (Int64.of_int seed) Ax_tensor.Rng.golden)
  in
  let sweeps = (samples + 63) / 64 in
  let bits = Circuit.input_count c in
  (* Cell (s, o)'s 64 lanes feed sweep words 2s (low half) and 2s + 1
     (high half) of input o, so every lane keeps its draw. *)
  let halves = Array.make (2 * sweeps * bits) 0 in
  for cell = 0 to (sweeps * bits) - 1 do
    let z = Ax_tensor.Rng.next_int64 rng in
    halves.(2 * cell) <- Int64.to_int (Int64.logand z 0xFFFFFFFFL);
    halves.((2 * cell) + 1) <- Int64.to_int (Int64.shift_right_logical z 32)
  done;
  let input_word w o = halves.((2 * (((w / 2) * bits) + o)) + (w land 1)) in
  probabilities_of_sweep (Sim.sampled c ~words:(2 * sweeps) input_word)

let analyze ?probabilities c =
  let probabilities =
    match probabilities with
    | Some p ->
      if Array.length p <> Circuit.node_count c then
        invalid_arg "Power.analyze: probabilities length <> node count";
      p
    | None ->
      (* Exact probabilities whenever exhaustive simulation is feasible
         (every 8x8 multiplier qualifies); the closed-form propagation
         is only the fallback for very wide circuits, where its
         reconvergent-fanout error has to be accepted. *)
      if Circuit.input_count c <= exact_inputs_limit then
        exact_signal_probabilities c
      else signal_probabilities c
  in
  let arrival = Array.make (Circuit.node_count c) 0. in
  let area = ref 0. and power = ref 0. and gates = ref 0 and delay = ref 0. in
  Circuit.iter_gates c (fun i g ->
      let ready =
        List.fold_left (fun acc j -> Float.max acc arrival.(j)) 0.
          (Gate.fanin g)
      in
      arrival.(i) <- ready +. delay_of_gate g;
      if arrival.(i) > !delay then delay := arrival.(i);
      area := !area +. area_of_gate g;
      (match g with
      | Gate.Input _ | Gate.Const _ | Gate.Buf _ -> ()
      | Gate.Not _ | Gate.And2 _ | Gate.Or2 _ | Gate.Xor2 _ | Gate.Nand2 _
      | Gate.Nor2 _ | Gate.Xnor2 _ ->
        incr gates;
        let p = probabilities.(i) in
        let activity = 2. *. p *. (1. -. p) in
        power := !power +. (activity *. area_of_gate g)));
  let d = !delay in
  { area = !area; delay = d; power = !power; gates = !gates;
    pdp = !power *. d }

let pp_report ppf r =
  Format.fprintf ppf
    "area=%.0f delay=%.1f power=%.2f gates=%d pdp=%.2f" r.area r.delay
    r.power r.gates r.pdp
