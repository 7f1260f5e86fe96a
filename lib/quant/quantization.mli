(** Affine quantization (Eq. 1 of the paper): [r = alpha * (q - beta)]
    with scale [alpha > 0] and integer zero-point [beta] chosen so that
    the real value 0 is exactly representable — the property the paper
    singles out as essential for zero padding and ReLU outputs. *)

type coeffs = {
  alpha : float;  (** scale; strictly positive *)
  beta : int;     (** zero-point, within the quantized range *)
}

val compute_coeffs :
  ?symmetric:bool ->
  Ax_arith.Signedness.t -> rmin:float -> rmax:float -> coeffs
(** The [ComputeCoeffs] step of Algorithm 1: derive [alpha], [beta] from
    an observed real range.  The range is first extended to contain 0
    (so the zero-point exists), degenerate ranges ([rmin = rmax = v])
    yield [alpha = max(|v|,1)/qmax]-style safe scales, and [beta] is the
    nudged zero-point clamped into the quantized range.

    With [symmetric:true] (common for weights) the zero-point is pinned:
    [beta = 0] for signed quantization with
    [alpha = max(|rmin|, |rmax|) / qmax], and [beta = qmin] for unsigned
    (where only the non-negative part of the range is representable).
    The Eq. 4 corrections involving [beta2] then vanish. *)

val quantize : coeffs -> Round.t -> Ax_arith.Signedness.t -> float -> int
(** Real value to quantized integer (clamped into range). *)

val dequantize : coeffs -> int -> float
(** [dequantize c q = alpha * (q - beta)]. *)

val roundtrip_error_bound : coeffs -> float
(** Worst dequantization error for an in-range value under nearest
    rounding: [alpha / 2]. *)
