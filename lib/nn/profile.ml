module Metrics = Ax_obs.Metrics
module Trace = Ax_obs.Trace

type phase = Init | Quantization | Lut | Other

let phase_name = function
  | Init -> "init"
  | Quantization -> "quantization"
  | Lut -> "lut"
  | Other -> "other"

let slot = function Init -> 0 | Quantization -> 1 | Lut -> 2 | Other -> 3

(* One slot per phase, indexed by [slot].  The slots partition real
   elapsed time and allocation: a nested [time] charges the inner phase
   and refunds its parent, so no second or word is counted twice. *)
type t = {
  secs : float array;
  words : float array;
  mutable active : int;  (* innermost running slot, -1 when none *)
  metrics : Metrics.t;
  lookups : Metrics.counter;
  mac_counter : Metrics.counter;
  mutable tracer : Trace.t option;
}

let create ?trace () =
  let metrics = Metrics.create () in
  {
    secs = Array.make 4 0.;
    words = Array.make 4 0.;
    active = -1;
    metrics;
    lookups = Metrics.counter metrics "lut_lookups";
    mac_counter = Metrics.counter metrics "macs";
    tracer = trace;
  }

let reset t =
  Array.fill t.secs 0 4 0.;
  Array.fill t.words 0 4 0.;
  t.active <- -1;
  Metrics.reset t.metrics;
  Option.iter Trace.clear t.tracer

let add_seconds t phase s =
  let i = slot phase in
  t.secs.(i) <- t.secs.(i) +. s

(* Inlined into both arms of [time] so [start] and [words] stay unboxed. *)
let[@inline always] settle t i outer start words =
  let dt = Unix.gettimeofday () -. start
  and dw = Gc.minor_words () -. words in
  t.secs.(i) <- t.secs.(i) +. dt;
  t.words.(i) <- t.words.(i) +. dw;
  if outer >= 0 then begin
    t.secs.(outer) <- t.secs.(outer) -. dt;
    t.words.(outer) <- t.words.(outer) -. dw
  end;
  t.active <- outer

let time profile phase f =
  match profile with
  | None -> f ()
  | Some t -> (
    let i = slot phase and outer = t.active in
    t.active <- i;
    let start = Unix.gettimeofday () in
    let words = Gc.minor_words () in
    match f () with
    | r ->
      settle t i outer start words;
      r
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle t i outer start words;
      Printexc.raise_with_backtrace e bt)

let count_lut_lookups t n = Metrics.incr t.lookups n
let count_macs t n = Metrics.incr t.mac_counter n
let count t name n = Metrics.add t.metrics name n
let observe t name v = Metrics.observe_named t.metrics name v
let seconds t phase = t.secs.(slot phase)
let minor_words t phase = t.words.(slot phase)
let total_seconds t = t.secs.(0) +. t.secs.(1) +. t.secs.(2) +. t.secs.(3)

let merge ~into part =
  for i = 0 to 3 do
    into.secs.(i) <- into.secs.(i) +. part.secs.(i);
    into.words.(i) <- into.words.(i) +. part.words.(i)
  done;
  let snap = Metrics.snapshot part.metrics in
  List.iter
    (fun (name, v) -> if v > 0 then Metrics.add into.metrics name v)
    snap.Metrics.counters;
  List.iter
    (fun (name, h) -> Metrics.merge_histogram into.metrics name h)
    snap.Metrics.histograms

let publish_gc t =
  List.iter
    (fun phase ->
      Metrics.set_gauge t.metrics
        ("phase_" ^ phase_name phase ^ "_minor_words")
        (minor_words t phase))
    [ Init; Quantization; Lut; Other ];
  Metrics.observe_gc t.metrics

let lut_lookups t = Metrics.value t.lookups
let macs t = Metrics.value t.mac_counter
let metrics t = t.metrics
let trace t = t.tracer
let set_trace t tracer = t.tracer <- Some tracer

let span profile ~name ?(attrs = []) f =
  match profile with
  | Some { tracer = Some tracer; _ } -> Trace.with_span tracer ~name ~attrs f
  | Some { tracer = None; _ } | None -> f ()

type breakdown = {
  init_pct : float;
  quantization_pct : float;
  lut_pct : float;
  other_pct : float;
}

let breakdown t =
  (* add_seconds accepts refunds, so a phase total can go negative;
     shares are computed over the clamped partition. *)
  let clamped phase = Float.max 0. (seconds t phase) in
  let init = clamped Init
  and quant = clamped Quantization
  and lut = clamped Lut
  and other = clamped Other in
  let total = init +. quant +. lut +. other in
  if total <= 0. then
    { init_pct = 0.; quantization_pct = 0.; lut_pct = 0.; other_pct = 0. }
  else
    {
      init_pct = 100. *. init /. total;
      quantization_pct = 100. *. quant /. total;
      lut_pct = 100. *. lut /. total;
      other_pct = 100. *. other /. total;
    }

let pp_breakdown ppf b =
  Format.fprintf ppf "init=%.1f%% quant=%.1f%% lut=%.1f%% other=%.1f%%"
    b.init_pct b.quantization_pct b.lut_pct b.other_pct
