(* Locks down PR "tiled ApproxGEMM + quantization edge cases":

   - a ~50-shape differential sweep proving the register/cache-blocked
     GEMM kernel is bit-identical to a test-local copy of the pre-tiling
     scalar kernel, for every accumulator model and both quantization
     granularities;
   - the raw-LUT accessor contract ([unsafe_raw]/[table] +
     [decode_correction] equals [lookup_code] over the entire table);
   - qcheck pinning of [Round.apply] tie-breaking against an
     integer-arithmetic reference (negative halves included);
   - the [filter_coeffs] Per_channel fixes (range intersection, finite
     coefficients for NaN/infinite channels);
   - domains validation at every entry point, and empty-batch plumbing
     through [Emulator.run];
   - the scratch arena's grow-only reuse contract. *)

module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Rng = Ax_tensor.Rng
module Filter = Ax_nn.Filter
module Conv_spec = Ax_nn.Conv_spec
module Axconv = Ax_nn.Axconv
module Accumulator = Ax_nn.Accumulator
module Im2col = Ax_nn.Im2col
module Scratch = Ax_nn.Scratch
module Exec = Ax_nn.Exec
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module S = Ax_arith.Signedness
module Lut = Ax_arith.Lut
module Registry = Ax_arith.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Scalar reference kernel: the pre-tiling GEMM, kept verbatim as an
   oracle.  No chunking (chunking never changes a bit), no blocking,
   decoded lookups through [Lut.lookup_code], products in ascending tap
   order — the semantics the tiled kernel must preserve exactly.        *)
(* ------------------------------------------------------------------ *)

let scalar_reference ~config ~input ~input_range ~filter ~filter_range ?bias
    ~spec () =
  let lut = config.Axconv.lut in
  let signedness = Lut.signedness lut in
  let out_shape = Conv_spec.output_shape spec (Tensor.shape input) filter in
  let out = Tensor.create out_shape in
  let coeffs1 =
    Q.compute_coeffs signedness ~rmin:input_range.Range.min
      ~rmax:input_range.Range.max
  in
  let coeffs2 =
    Axconv.filter_coeffs config.Axconv.granularity signedness filter
      filter_range
  in
  let mf_t, sf =
    Axconv.quantize_filters_per_channel signedness coeffs2
      config.Axconv.round_mode filter
  in
  let taps = Filter.taps filter and out_c = Filter.out_c filter in
  let beta1 = coeffs1.Q.beta in
  let alpha12 = Array.map (fun c -> coeffs1.Q.alpha *. c.Q.alpha) coeffs2 in
  let beta2 = Array.map (fun c -> c.Q.beta) coeffs2 in
  let n_beta12 = Array.map (fun b2 -> taps * beta1 * b2) beta2 in
  let plan =
    Im2col.make (Tensor.shape input) ~kh:(Filter.kh filter)
      ~kw:(Filter.kw filter) ~spec
  in
  let mp, sp =
    Im2col.to_codes plan input ~coeffs:coeffs1
      ~round_mode:config.Axconv.round_mode ~signedness
  in
  let out_buf = Tensor.buffer out in
  let accumulator = config.Axconv.accumulator in
  for row = 0 to plan.Im2col.rows - 1 do
    for k = 0 to out_c - 1 do
      let acc = ref 0 in
      for p = 0 to taps - 1 do
        let ca = Char.code (Bytes.get mp ((row * taps) + p)) in
        let cb = Char.code (Bytes.get mf_t ((k * taps) + p)) in
        let v = Lut.lookup_code lut ca cb in
        acc :=
          (match accumulator with
          | Accumulator.Wide -> !acc + v
          | _ -> Accumulator.add accumulator !acc v)
      done;
      let corrected =
        !acc - (beta2.(k) * sp.(row)) - (beta1 * sf.(k)) + n_beta12.(k)
      in
      let v = alpha12.(k) *. float_of_int corrected in
      let v = match bias with Some b -> v +. b.(k) | None -> v in
      out_buf.{(row * out_c) + k} <- v
    done
  done;
  out

(* ------------------------------------------------------------------ *)
(* Differential sweep                                                  *)
(* ------------------------------------------------------------------ *)

let accumulators =
  [
    Accumulator.Wide;
    Accumulator.Saturating 16;
    Accumulator.Wrapping 16;
    Accumulator.Lower_or { width = 20; approx_low = 4 };
  ]

let granularities = [ Axconv.Per_tensor; Axconv.Per_channel ]

(* Exact and approximate tables of both signednesses, so every
   accumulator model is checked against a signed approximate LUT too. *)
let multipliers =
  [|
    "mul8u_exact"; "mul8u_trunc8"; "mul8s_exact"; "mul8s_mitchell";
    "mul8u_drum4";
  |]

let test_sweep () =
  let cases = ref 0 in
  for id = 0 to 49 do
    let rng = Rng.create (1000 + id) in
    let pick lo hi = lo + Rng.int rng (hi - lo + 1) in
    let n = pick 1 3 in
    let h = pick 4 10 and w = pick 4 10 in
    let c = pick 1 6 and out_c = pick 1 10 in
    let kh = pick 1 3 and kw = pick 1 3 in
    let stride = pick 1 2 in
    let padding = if Rng.int rng 2 = 0 then Conv_spec.Same else Conv_spec.Valid in
    let spec = Conv_spec.make ~stride ~padding () in
    let chunk_size = pick 1 n in
    let input = Tensor.create (Shape.make ~n ~h ~w ~c) in
    Tensor.fill_uniform ~lo:(-1.2) ~hi:1.2 rng input;
    let filter = Filter.create ~kh ~kw ~in_c:c ~out_c in
    Filter.fill_he_normal rng filter;
    let input_range = Range.of_tensor input in
    let fmin, fmax = Filter.min_max filter in
    let filter_range = Range.make ~min:fmin ~max:fmax in
    let entry = Registry.find_exn multipliers.(id mod Array.length multipliers) in
    let bias =
      if id mod 2 = 0 then Some (Array.init out_c (fun k -> 0.01 *. float_of_int k))
      else None
    in
    List.iter
      (fun accumulator ->
        List.iter
          (fun granularity ->
            let config =
              Axconv.make_config ~chunk_size ~granularity ~accumulator
                (Registry.lut entry)
            in
            let got =
              Axconv.conv ~config ~input ~input_range ~filter ~filter_range
                ?bias ~spec ()
            in
            let want =
              scalar_reference ~config ~input ~input_range ~filter
                ~filter_range ?bias ~spec ()
            in
            incr cases;
            check_bool
              (Printf.sprintf "case %d (%s, %s): tiled == scalar" id
                 (Accumulator.to_string accumulator)
                 (match granularity with
                 | Axconv.Per_tensor -> "per-tensor"
                 | Axconv.Per_channel -> "per-channel"))
              true
              (Tensor.max_abs_diff want got = 0.))
          granularities)
      accumulators
  done;
  check_bool "sweep ran 400 comparisons" true (!cases = 400)

(* ------------------------------------------------------------------ *)
(* Raw LUT accessor contract                                           *)
(* ------------------------------------------------------------------ *)

let test_raw_accessor () =
  List.iter
    (fun lut ->
      let corr = Lut.decode_correction lut in
      let table = Lut.table lut in
      let bad = ref 0 in
      for ca = 0 to 255 do
        for cb = 0 to 255 do
          let idx = (ca lsl 8) lor cb in
          let raw = Lut.unsafe_raw lut idx in
          let decoded = raw - ((raw lsr 15) * corr) in
          if decoded <> Lut.lookup_code lut ca cb then incr bad;
          if Bigarray.Array1.get table idx <> raw then incr bad
        done
      done;
      check_int
        (Printf.sprintf "raw accessor decodes (%s)"
           (S.to_string (Lut.signedness lut)))
        0 !bad)
    [
      Lut.exact S.Unsigned;
      Lut.exact S.Signed;
      Registry.lut (Registry.find_exn "mul8u_trunc8");
    ]

(* ------------------------------------------------------------------ *)
(* Round.apply tie-breaking                                            *)
(* ------------------------------------------------------------------ *)

(* Integer reference for x = m/2 (every representable tie lives there):
   even m is exact; odd m ties between lo = (m-1)/2 and hi = lo+1 (m-1
   is even, so the division is exact even for negative m).  Float
   division by 2 is exact, so comparing on halves is comparing on the
   same values [Round.apply] sees. *)
let reference_on_half mode m =
  let open Round in
  if m mod 2 = 0 then m / 2
  else
    let lo = (m - 1) / 2 in
    let hi = lo + 1 in
    match mode with
    | Nearest_even -> if lo mod 2 = 0 then lo else hi
    | Nearest_away -> if m > 0 then hi else lo
    | Toward_zero -> if m > 0 then lo else hi
    | Stochastic -> invalid_arg "no deterministic reference"

let qcheck_half_ties =
  QCheck.Test.make ~name:"Round.apply on halves matches integer reference"
    ~count:500
    QCheck.(int_range (-2001) 2001)
    (fun m ->
      let x = float_of_int m /. 2. in
      List.for_all
        (fun mode -> Round.apply mode x = reference_on_half mode m)
        [ Round.Nearest_even; Round.Nearest_away; Round.Toward_zero ])

let qcheck_nearest =
  QCheck.Test.make
    ~name:"Round.apply nearest modes pick the closest integer off ties"
    ~count:500
    QCheck.(float_range (-1000.) 1000.)
    (fun x ->
      let frac = x -. Float.floor x in
      QCheck.assume (frac <> 0.5);
      let nearest = int_of_float (Float.round x) in
      Round.apply Round.Nearest_even x = nearest
      && Round.apply Round.Nearest_away x = nearest)

let test_tie_units () =
  let cases =
    [ (-2.5, -2); (-1.5, -2); (-0.5, 0); (0.5, 0); (1.5, 2); (2.5, 2) ]
  in
  List.iter
    (fun (x, want) ->
      check_int
        (Printf.sprintf "nearest-even %g" x)
        want
        (Round.apply Round.Nearest_even x))
    cases;
  check_int "nearest-away -2.5" (-3) (Round.apply Round.Nearest_away (-2.5));
  check_int "nearest-away 2.5" 3 (Round.apply Round.Nearest_away 2.5);
  check_int "toward-zero -2.5" (-2) (Round.apply Round.Toward_zero (-2.5));
  check_int "toward-zero 2.5" 2 (Round.apply Round.Toward_zero 2.5)

(* ------------------------------------------------------------------ *)
(* filter_coeffs Per_channel edge cases                                *)
(* ------------------------------------------------------------------ *)

let filter_of_channels channels =
  (* 1x1xN filter bank with one weight per output channel. *)
  let out_c = Array.length channels in
  let f = Filter.create ~kh:1 ~kw:1 ~in_c:1 ~out_c in
  Array.iteri (fun k v -> Filter.set f ~h:0 ~w:0 ~c:0 ~k v) channels;
  f

let finite_coeffs cs =
  Array.for_all (fun c -> Float.is_finite c.Q.alpha) cs

let test_per_channel_intersection () =
  (* Channel bounds wider than the supplied range are clipped to it
     (pre-fix, the supplied range was ignored entirely). *)
  let f = Filter.create ~kh:1 ~kw:1 ~in_c:2 ~out_c:2 in
  Filter.set f ~h:0 ~w:0 ~c:0 ~k:0 (-2.0);
  Filter.set f ~h:0 ~w:0 ~c:1 ~k:0 0.5;
  Filter.set f ~h:0 ~w:0 ~c:0 ~k:1 0.25;
  Filter.set f ~h:0 ~w:0 ~c:1 ~k:1 0.5;
  let range = Range.make ~min:(-1.) ~max:1. in
  let cs = Axconv.filter_coeffs Axconv.Per_channel S.Signed f range in
  let clipped = Q.compute_coeffs S.Signed ~rmin:(-1.) ~rmax:0.5 in
  check_bool "overflowing channel clipped to the supplied range" true
    (cs.(0).Q.alpha = clipped.Q.alpha && cs.(0).Q.beta = clipped.Q.beta);
  let own = Q.compute_coeffs S.Signed ~rmin:0.25 ~rmax:0.5 in
  check_bool "in-range channel keeps its own bounds" true
    (cs.(1).Q.alpha = own.Q.alpha && cs.(1).Q.beta = own.Q.beta);
  (* A channel disjoint from the supplied range has an empty
     intersection: it degrades to the full supplied range rather than an
     inverted one. *)
  let f_disjoint = filter_of_channels [| -2.0; 0.5 |] in
  let cs = Axconv.filter_coeffs Axconv.Per_channel S.Signed f_disjoint range in
  let fallback = Q.compute_coeffs S.Signed ~rmin:(-1.) ~rmax:1. in
  check_bool "disjoint channel falls back to the supplied range" true
    (cs.(0).Q.alpha = fallback.Q.alpha && cs.(0).Q.beta = fallback.Q.beta);
  (* Honest ranges (range covers every channel) are a no-op: identical
     to quantizing over the observed per-channel bounds. *)
  let rng = Rng.create 77 in
  let f2 = Filter.create ~kh:3 ~kw:3 ~in_c:2 ~out_c:4 in
  Filter.fill_he_normal rng f2;
  let fmin, fmax = Filter.min_max f2 in
  let cs2 =
    Axconv.filter_coeffs Axconv.Per_channel S.Signed f2
      (Range.make ~min:fmin ~max:fmax)
  in
  let mins = Array.make 4 infinity and maxs = Array.make 4 neg_infinity in
  Filter.iter f2 (fun ~h:_ ~w:_ ~c:_ ~k v ->
      if v < mins.(k) then mins.(k) <- v;
      if v > maxs.(k) then maxs.(k) <- v);
  Array.iteri
    (fun k c ->
      let want = Q.compute_coeffs S.Signed ~rmin:mins.(k) ~rmax:maxs.(k) in
      check_bool
        (Printf.sprintf "honest range is a no-op (channel %d)" k)
        true
        (c.Q.alpha = want.Q.alpha && c.Q.beta = want.Q.beta))
    cs2

let test_per_channel_degenerate () =
  let range = Range.make ~min:(-1.) ~max:1. in
  (* NaN weights never poison bounds comparisons: the channel falls back
     to the supplied range with finite coefficients. *)
  let f_nan = filter_of_channels [| Float.nan; 0.25 |] in
  let cs = Axconv.filter_coeffs Axconv.Per_channel S.Signed f_nan range in
  check_bool "NaN channel yields finite coeffs" true (finite_coeffs cs);
  let fallback = Q.compute_coeffs S.Signed ~rmin:(-1.) ~rmax:1. in
  check_bool "NaN channel falls back to the supplied range" true
    (cs.(0).Q.alpha = fallback.Q.alpha && cs.(0).Q.beta = fallback.Q.beta);
  (* Infinite weights likewise. *)
  let f_inf = filter_of_channels [| Float.infinity; 0.25 |] in
  let cs = Axconv.filter_coeffs Axconv.Per_channel S.Signed f_inf range in
  check_bool "infinite channel yields finite coeffs" true (finite_coeffs cs);
  (* Both the channel and the supplied range unusable: degrade to the
     all-zero range, still finite (alpha = 1/qmax). *)
  let bad_range = Range.make ~min:neg_infinity ~max:infinity in
  let cs =
    Axconv.filter_coeffs Axconv.Per_channel S.Signed f_nan bad_range
  in
  check_bool "unusable range still yields finite coeffs" true
    (finite_coeffs cs);
  (* Constant (zero-span) channels already worked; pin them too. *)
  let f_const = filter_of_channels [| 0.; 0.7 |] in
  let cs = Axconv.filter_coeffs Axconv.Per_channel S.Signed f_const range in
  check_bool "constant channel yields finite coeffs" true (finite_coeffs cs)

(* ------------------------------------------------------------------ *)
(* Domains validation + empty batch                                    *)
(* ------------------------------------------------------------------ *)

let lut_u = Lut.exact S.Unsigned

let test_domains_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "make_config rejects domains 0" true
    (raises (fun () -> Axconv.make_config ~domains:0 lut_u));
  check_bool "make_config rejects domains 65" true
    (raises (fun () -> Axconv.make_config ~domains:65 lut_u));
  check_bool "make_config accepts domains 64" true
    (match Axconv.make_config ~domains:64 lut_u with
    | _ -> true
    | exception _ -> false);
  let g =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_exact"
      (Ax_models.Resnet.build ~depth:8 ())
  in
  let data = (Ax_data.Cifar.generate ~n:1 ()).Ax_data.Cifar.images in
  check_bool "Emulator.run rejects domains 65" true
    (raises (fun () ->
         Tfapprox.Emulator.run ~domains:65 ~backend:Tfapprox.Emulator.Cpu_gemm
           g data));
  check_bool "Emulator.run rejects domains 0" true
    (raises (fun () ->
         Tfapprox.Emulator.run ~domains:0 ~backend:Tfapprox.Emulator.Cpu_gemm g
           data))

let test_empty_batch () =
  let g =
    Tfapprox.Emulator.approximate_model ~multiplier:"mul8u_exact"
      (Ax_models.Resnet.build ~depth:8 ())
  in
  let empty = (Ax_data.Cifar.generate ~n:0 ()).Ax_data.Cifar.images in
  check_int "empty dataset generates zero images" 0
    Shape.((Tensor.shape empty).n);
  let out = Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm g empty in
  let s = Tensor.shape out in
  check_bool "empty batch yields an empty output of the right shape" true
    (Shape.(s.n) = 0 && Shape.(s.h) = 1 && Shape.(s.w) = 1 && Shape.(s.c) = 10);
  (* The sharded path is gated the same way. *)
  let out2 =
    Tfapprox.Emulator.run ~domains:2 ~backend:Tfapprox.Emulator.Cpu_gemm g
      empty
  in
  check_bool "empty batch with domains yields the same shape" true
    (Shape.equal s (Tensor.shape out2));
  check_int "predictions on an empty batch" 0
    (Array.length
       (Tfapprox.Emulator.predictions ~backend:Tfapprox.Emulator.Cpu_gemm g
          empty));
  check_bool "accuracy refuses an empty dataset" true
    (match
       Tfapprox.Emulator.accuracy ~backend:Tfapprox.Emulator.Cpu_gemm g
         (Ax_data.Cifar.generate ~n:0 ())
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* output_shape agrees with a real run on a non-empty batch. *)
  let data = (Ax_data.Cifar.generate ~n:2 ()).Ax_data.Cifar.images in
  let real =
    Tensor.shape (Tfapprox.Emulator.run ~backend:Tfapprox.Emulator.Cpu_gemm g data)
  in
  check_bool "output_shape matches a real run" true
    (Shape.equal real (Exec.output_shape g ~input:(Tensor.shape data)))

(* ------------------------------------------------------------------ *)
(* Scratch arena                                                       *)
(* ------------------------------------------------------------------ *)

let test_scratch_reuse () =
  let s = Scratch.create () in
  let b1 = Scratch.mp s 100 in
  check_bool "mp at least the requested length" true (Bytes.length b1 >= 100);
  let b2 = Scratch.mp s 50 in
  check_bool "smaller request reuses the same buffer" true (b1 == b2);
  let b3 = Scratch.mp s (Bytes.length b1 + 1) in
  check_bool "larger request grows" true
    (Bytes.length b3 > Bytes.length b1);
  let a1 = Scratch.acc s 10 and sp1 = Scratch.sp s 10 in
  check_bool "acc and sp are distinct buffers" true (not (a1 == sp1));
  let a2 = Scratch.acc s 4 in
  check_bool "acc reused" true (a1 == a2);
  check_bool "domain_local is stable on a domain" true
    (Scratch.domain_local () == Scratch.domain_local ());
  (* to_codes_range validates its row range against the plan. *)
  let input = Tensor.create (Shape.make ~n:1 ~h:4 ~w:4 ~c:1) in
  let plan = Im2col.make (Tensor.shape input) ~kh:3 ~kw:3 ~spec:Conv_spec.default in
  let coeffs = Q.compute_coeffs S.Unsigned ~rmin:0. ~rmax:1. in
  check_bool "to_codes_range rejects an out-of-plan range" true
    (match
       Im2col.to_codes_range ~scratch:s plan input ~row_lo:0
         ~row_hi:(plan.Im2col.rows + 1) ~coeffs
         ~round_mode:Round.Nearest_even ~signedness:S.Unsigned
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "gemm_tiled"
    [
      ( "differential",
        [
          Alcotest.test_case "tiled == scalar reference (50 shapes x 4 \
                              accumulators x 2 granularities)" `Quick test_sweep;
        ] );
      ( "lut",
        [ Alcotest.test_case "raw accessor contract" `Quick test_raw_accessor ]
      );
      ( "rounding",
        [
          QCheck_alcotest.to_alcotest qcheck_half_ties;
          QCheck_alcotest.to_alcotest qcheck_nearest;
          Alcotest.test_case "tie units" `Quick test_tie_units;
        ] );
      ( "filter_coeffs",
        [
          Alcotest.test_case "per-channel range intersection" `Quick
            test_per_channel_intersection;
          Alcotest.test_case "per-channel degenerate channels" `Quick
            test_per_channel_degenerate;
        ] );
      ( "edges",
        [
          Alcotest.test_case "domains validation" `Quick
            test_domains_validation;
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
        ] );
      ( "scratch",
        [ Alcotest.test_case "arena reuse and growth" `Quick test_scratch_reuse ]
      );
    ]
