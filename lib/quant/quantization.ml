module S = Ax_arith.Signedness

type coeffs = { alpha : float; beta : int }

let compute_coeffs ?(symmetric = false) signedness ~rmin ~rmax =
  if Float.is_nan rmin || Float.is_nan rmax then
    invalid_arg "Quantization.compute_coeffs: NaN range";
  if rmin > rmax then
    invalid_arg "Quantization.compute_coeffs: rmin > rmax";
  (* Extend the range to include zero so beta exists. *)
  let rmin = Float.min rmin 0. and rmax = Float.max rmax 0. in
  let qmin = float_of_int (S.min_value signedness) in
  let qmax = float_of_int (S.max_value signedness) in
  if symmetric then begin
    let bound = Float.max (abs_float rmin) (abs_float rmax) in
    let alpha = if bound <= 0. then 1. /. qmax else bound /. qmax in
    { alpha; beta = S.clamp signedness 0 }
  end
  else begin
    let span = rmax -. rmin in
    let alpha =
      if span <= 0. then 1. /. qmax  (* all-zero tensor: any positive scale *)
      else span /. (qmax -. qmin)
    in
    (* Nudge the zero-point to an integer inside the quantized range. *)
    let beta_real = qmin -. (rmin /. alpha) in
    let beta =
      if beta_real <= qmin then S.min_value signedness
      else if beta_real >= qmax then S.max_value signedness
      else Round.apply Round.Nearest_away beta_real
    in
    { alpha; beta }
  end

let quantize c mode signedness r =
  let q = Round.apply mode ((r /. c.alpha) +. float_of_int c.beta) in
  S.clamp signedness q

let dequantize c q = c.alpha *. float_of_int (q - c.beta)

let roundtrip_error_bound c = c.alpha /. 2.
