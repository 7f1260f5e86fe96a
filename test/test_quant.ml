(* Tests for affine quantization: coefficient computation, the
   zero-exactly-representable invariant the paper emphasises, round
   modes, and tensor quantization into LUT codes. *)

module S = Ax_arith.Signedness
module Round = Ax_quant.Round
module Q = Ax_quant.Quantization
module Range = Ax_quant.Range
module Tensor = Ax_tensor.Tensor
module Shape = Ax_tensor.Shape
module Rng = Ax_tensor.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* --- rounding --- *)

let test_round_nearest_even () =
  check_int "2.5 -> 2" 2 (Round.apply Round.Nearest_even 2.5);
  check_int "3.5 -> 4" 4 (Round.apply Round.Nearest_even 3.5);
  check_int "-2.5 -> -2" (-2) (Round.apply Round.Nearest_even (-2.5));
  check_int "2.4 -> 2" 2 (Round.apply Round.Nearest_even 2.4);
  check_int "2.6 -> 3" 3 (Round.apply Round.Nearest_even 2.6)

let test_round_nearest_away () =
  check_int "2.5 -> 3" 3 (Round.apply Round.Nearest_away 2.5);
  check_int "-2.5 -> -3" (-3) (Round.apply Round.Nearest_away (-2.5));
  check_int "2.4 -> 2" 2 (Round.apply Round.Nearest_away 2.4)

let test_round_toward_zero () =
  check_int "2.9 -> 2" 2 (Round.apply Round.Toward_zero 2.9);
  check_int "-2.9 -> -2" (-2) (Round.apply Round.Toward_zero (-2.9))

let test_round_stochastic_deterministic_and_adjacent () =
  let x = 2.3 in
  check_int "reproducible" (Round.apply Round.Stochastic x)
    (Round.apply Round.Stochastic x);
  for i = 0 to 100 do
    let v = 0.07 *. float_of_int i in
    let r = Round.apply Round.Stochastic v in
    check_bool "adjacent integer" true (r = int_of_float (floor v) || r = int_of_float (ceil v))
  done

let test_round_stochastic_unbiased () =
  (* Mean of stochastic rounding over many distinct inputs near x.25
     should approach .25 fractional mass. *)
  let ups = ref 0 in
  let n = 20000 in
  for i = 0 to n - 1 do
    let v = 5.25 +. (1e-9 *. float_of_int i) in
    if Round.apply Round.Stochastic v = 6 then incr ups
  done;
  let rate = float_of_int !ups /. float_of_int n in
  check_bool "up-rate near 0.25" true (abs_float (rate -. 0.25) < 0.02)

(* --- compute_coeffs --- *)

let test_coeffs_zero_exactly_representable () =
  (* The paper: "The constants are chosen in such a way that the real
     value r = 0 is exactly representable". *)
  List.iter
    (fun (s, rmin, rmax) ->
      let c = Q.compute_coeffs s ~rmin ~rmax in
      let q0 = Q.quantize c Round.Nearest_even s 0. in
      check_float
        (Printf.sprintf "dequant(quant(0)) = 0 for [%g,%g]" rmin rmax)
        0. (Q.dequantize c q0))
    [
      (S.Unsigned, 0., 6.); (S.Unsigned, -1., 5.); (S.Unsigned, 2., 9.);
      (S.Signed, -4., 4.); (S.Signed, -0.1, 8.); (S.Signed, -7., -1.);
      (S.Unsigned, 0., 0.);
    ]

let test_coeffs_alpha_positive () =
  List.iter
    (fun (rmin, rmax) ->
      let c = Q.compute_coeffs S.Signed ~rmin ~rmax in
      check_bool "alpha > 0" true (c.Q.alpha > 0.))
    [ (-1., 1.); (0., 0.); (5., 5.); (-3., -3.); (0., 1e-20) ]

let test_coeffs_beta_in_range () =
  List.iter
    (fun s ->
      List.iter
        (fun (rmin, rmax) ->
          let c = Q.compute_coeffs s ~rmin ~rmax in
          check_bool "beta in range" true (S.in_range s c.Q.beta))
        [ (-100., 0.001); (-0.001, 100.); (-1., 1.); (0., 255.) ])
    [ S.Signed; S.Unsigned ]

let test_coeffs_rejects_bad_range () =
  Alcotest.check_raises "inverted"
    (Invalid_argument "Quantization.compute_coeffs: rmin > rmax") (fun () ->
      ignore (Q.compute_coeffs S.Signed ~rmin:2. ~rmax:1.));
  Alcotest.check_raises "nan"
    (Invalid_argument "Quantization.compute_coeffs: NaN range") (fun () ->
      ignore (Q.compute_coeffs S.Signed ~rmin:Float.nan ~rmax:1.))

let test_symmetric_coeffs () =
  (* Signed symmetric: beta pinned to 0, scale from the magnitude bound. *)
  let c = Q.compute_coeffs ~symmetric:true S.Signed ~rmin:(-3.) ~rmax:1.5 in
  check_int "beta is 0" 0 c.Q.beta;
  check_float "alpha = 3/127" (3. /. 127.) c.Q.alpha;
  check_float "zero representable" 0.
    (Q.dequantize c (Q.quantize c Round.Nearest_even S.Signed 0.));
  (* Symmetric roundtrip bound: alpha/2 within the symmetric range. *)
  let rng = Rng.create 5 in
  for _ = 1 to 500 do
    let r = -3. +. (6. *. Rng.float rng) in
    let q = Q.quantize c Round.Nearest_even S.Signed r in
    check_bool "roundtrip" true
      (abs_float (Q.dequantize c q -. r) <= (c.Q.alpha /. 2.) +. 1e-9)
  done;
  (* Unsigned symmetric pins beta to qmin. *)
  let u = Q.compute_coeffs ~symmetric:true S.Unsigned ~rmin:0. ~rmax:4. in
  check_int "unsigned beta is 0" 0 u.Q.beta;
  (* Degenerate all-zero range stays positive-scaled. *)
  let z = Q.compute_coeffs ~symmetric:true S.Signed ~rmin:0. ~rmax:0. in
  check_bool "alpha positive" true (z.Q.alpha > 0.)

(* --- quantize / dequantize --- *)

let test_roundtrip_error_bound () =
  List.iter
    (fun s ->
      let rmin = -3.7 and rmax = 5.2 in
      let c = Q.compute_coeffs s ~rmin ~rmax in
      let bound = Q.roundtrip_error_bound c +. 1e-9 in
      let rng = Rng.create 77 in
      for _ = 1 to 2000 do
        let r = rmin +. ((rmax -. rmin) *. Rng.float rng) in
        let q = Q.quantize c Round.Nearest_even s r in
        check_bool
          (Printf.sprintf "|dequant(quant(%g)) - %g| <= alpha/2" r r)
          true
          (abs_float (Q.dequantize c q -. r) <= bound)
      done)
    [ S.Signed; S.Unsigned ]

let test_quantize_clamps () =
  let c = Q.compute_coeffs S.Unsigned ~rmin:0. ~rmax:1. in
  check_int "above range clamps to 255" 255
    (Q.quantize c Round.Nearest_even S.Unsigned 100.);
  check_int "below range clamps to 0" 0
    (Q.quantize c Round.Nearest_even S.Unsigned (-100.))

let test_quantize_monotone () =
  let c = Q.compute_coeffs S.Signed ~rmin:(-2.) ~rmax:2. in
  let prev = ref min_int in
  for i = 0 to 100 do
    let r = -2. +. (0.04 *. float_of_int i) in
    let q = Q.quantize c Round.Nearest_even S.Signed r in
    check_bool "monotone" true (q >= !prev);
    prev := q
  done

let test_degenerate_range_quantizes_to_zero () =
  let c = Q.compute_coeffs S.Signed ~rmin:0. ~rmax:0. in
  let q = Q.quantize c Round.Nearest_even S.Signed 0. in
  check_float "all-zero tensor stays zero" 0. (Q.dequantize c q)

(* --- range --- *)

let test_range_of_tensor_and_union () =
  let t =
    Tensor.of_array (Shape.make ~n:1 ~h:1 ~w:4 ~c:1) [| -2.; 0.5; 3.; 1. |]
  in
  let r = Range.of_tensor t in
  check_float "min" (-2.) r.Range.min;
  check_float "max" 3. r.Range.max;
  let u = Range.union r (Range.make ~min:(-5.) ~max:1.) in
  check_float "union min" (-5.) u.Range.min;
  check_float "union max" 3. u.Range.max;
  check_bool "contains" true (Range.contains r 0.);
  check_bool "not contains" false (Range.contains r 4.)

let test_range_with_zero () =
  let r = Range.with_zero (Range.make ~min:2. ~max:5.) in
  check_float "extended to zero" 0. r.Range.min;
  let r = Range.with_zero (Range.make ~min:(-5.) ~max:(-2.)) in
  check_float "extended upward" 0. r.Range.max

let test_range_rejects_bad () =
  Alcotest.check_raises "inverted" (Invalid_argument "Range.make: min > max")
    (fun () -> ignore (Range.make ~min:1. ~max:0.))

(* --- qcheck properties --- *)

let finite_float = QCheck.float_range (-1000.) 1000.

let prop_quantize_in_range =
  QCheck.Test.make ~name:"quantized value always lies in operand range"
    ~count:1000
    QCheck.(triple finite_float finite_float finite_float)
    (fun (a, b, x) ->
      let rmin = Float.min a b and rmax = Float.max a b in
      List.for_all
        (fun s ->
          let c = Q.compute_coeffs s ~rmin ~rmax in
          S.in_range s (Q.quantize c Round.Nearest_even s x))
        [ S.Signed; S.Unsigned ])

let prop_dequantize_zero_point_is_zero =
  QCheck.Test.make ~name:"dequantize beta = 0 exactly" ~count:1000
    QCheck.(pair finite_float finite_float)
    (fun (a, b) ->
      let rmin = Float.min a b and rmax = Float.max a b in
      List.for_all
        (fun s ->
          let c = Q.compute_coeffs s ~rmin ~rmax in
          Q.dequantize c c.Q.beta = 0.)
        [ S.Signed; S.Unsigned ])

let prop_roundtrip_bounded =
  QCheck.Test.make ~name:"roundtrip error bounded by alpha/2 in-range"
    ~count:1000
    QCheck.(triple finite_float finite_float (float_range 0. 1.))
    (fun (a, b, frac) ->
      let rmin = Float.min a b and rmax = Float.max a b in
      let x = rmin +. (frac *. (rmax -. rmin)) in
      List.for_all
        (fun s ->
          let c = Q.compute_coeffs s ~rmin ~rmax in
          let q = Q.quantize c Round.Nearest_even s x in
          abs_float (Q.dequantize c q -. x)
          <= Q.roundtrip_error_bound c +. 1e-9)
        [ S.Signed; S.Unsigned ])

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_quantize_in_range; prop_dequantize_zero_point_is_zero;
        prop_roundtrip_bounded;
      ]
  in
  Alcotest.run "ax_quant"
    [
      ( "round",
        [
          Alcotest.test_case "nearest even" `Quick test_round_nearest_even;
          Alcotest.test_case "nearest away" `Quick test_round_nearest_away;
          Alcotest.test_case "toward zero" `Quick test_round_toward_zero;
          Alcotest.test_case "stochastic deterministic" `Quick
            test_round_stochastic_deterministic_and_adjacent;
          Alcotest.test_case "stochastic unbiased" `Quick
            test_round_stochastic_unbiased;
        ] );
      ( "coeffs",
        [
          Alcotest.test_case "zero exactly representable" `Quick
            test_coeffs_zero_exactly_representable;
          Alcotest.test_case "alpha positive" `Quick test_coeffs_alpha_positive;
          Alcotest.test_case "beta in range" `Quick test_coeffs_beta_in_range;
          Alcotest.test_case "rejects bad ranges" `Quick
            test_coeffs_rejects_bad_range;
        ] );
      ( "symmetric",
        [ Alcotest.test_case "pinned zero-point" `Quick test_symmetric_coeffs ] );
      ( "quantize",
        [
          Alcotest.test_case "roundtrip bound" `Quick
            test_roundtrip_error_bound;
          Alcotest.test_case "clamps" `Quick test_quantize_clamps;
          Alcotest.test_case "monotone" `Quick test_quantize_monotone;
          Alcotest.test_case "degenerate range" `Quick
            test_degenerate_range_quantizes_to_zero;
        ] );
      ( "range",
        [
          Alcotest.test_case "of_tensor/union" `Quick
            test_range_of_tensor_and_union;
          Alcotest.test_case "with_zero" `Quick test_range_with_zero;
          Alcotest.test_case "rejects bad" `Quick test_range_rejects_bad;
        ] );
      ("properties", qsuite);
    ]
