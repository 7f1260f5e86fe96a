module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Matrix = Ax_tensor.Matrix
module Q = Ax_quant.Quantization
module S = Ax_arith.Signedness
module Pool = Ax_pool.Pool

type plan = {
  input_shape : Shape.t;
  kh : int;
  kw : int;
  stride : int;
  dilation : int;
  out_h : int;
  out_w : int;
  pad_top : int;
  pad_left : int;
  rows : int;
  patch_len : int;
}

let make input ~kh ~kw ~spec =
  let out_h, out_w, pad_top, pad_left =
    Shape.conv_output_dims input ~kh ~kw ~stride:spec.Conv_spec.stride
      ~dilation:spec.Conv_spec.dilation
      ~padding:(Conv_spec.padding_to_poly spec.Conv_spec.padding)
  in
  {
    input_shape = input;
    kh;
    kw;
    stride = spec.Conv_spec.stride;
    dilation = spec.Conv_spec.dilation;
    out_h;
    out_w;
    pad_top;
    pad_left;
    rows = Shape.(input.n) * out_h * out_w;
    patch_len = kh * kw * Shape.(input.c);
  }

(* Iterate the taps of one patch in HWC order, calling [inside] with the
   flat input offset for real cells and [padded] for out-of-image cells.
   Shared by both lowering flavours so they cannot disagree. *)
let iter_patch plan ~n ~oh ~ow ~inside ~padded =
  let s = plan.input_shape in
  let in_h = Shape.(s.h) and in_w = Shape.(s.w) and in_c = Shape.(s.c) in
  let base_h = (oh * plan.stride) - plan.pad_top in
  let base_w = (ow * plan.stride) - plan.pad_left in
  let col = ref 0 in
  for dh = 0 to plan.kh - 1 do
    let h = base_h + (dh * plan.dilation) in
    for dw = 0 to plan.kw - 1 do
      let w = base_w + (dw * plan.dilation) in
      if h >= 0 && h < in_h && w >= 0 && w < in_w then begin
        let base = Shape.unsafe_offset s ~n ~h ~w ~c:0 in
        for c = 0 to in_c - 1 do
          inside !col (base + c);
          incr col
        done
      end
      else
        for _ = 0 to in_c - 1 do
          padded !col;
          incr col
        done
    done
  done

(* Patch-matrix row [row] corresponds to image [row / (out_h * out_w)],
   output pixel [(rem / out_w, rem mod out_w)] — the fixed row order
   both lowering flavours and the GEMM rely on.  Deriving the
   coordinates from the row index (instead of threading a counter
   through nested loops) is what lets a row range be filled by any
   domain independently; the fill loops inline the division to avoid a
   per-row coordinate tuple. *)

let to_matrix ?scratch plan input =
  if not (Shape.equal (Tensor.shape input) plan.input_shape) then
    invalid_arg "Im2col.to_matrix: input shape differs from plan";
  let m =
    match scratch with
    | None -> Matrix.create ~rows:plan.rows ~cols:plan.patch_len
    | Some s ->
      (* Scratch-backed matrix: the data array is oversized and reused,
         so the padding cells (the only ones [fill_rows] skips) must be
         re-zeroed explicitly. *)
      let len = plan.rows * plan.patch_len in
      let data = Scratch.fm s len in
      Array.fill data 0 len 0.;
      { Matrix.rows = plan.rows; cols = plan.patch_len; data }
  in
  let buf = Tensor.buffer input in
  (* Closures and the row cursor live outside the row loop — one
     allocation per call, not per row — so scratch-backed reuse really
     is allocation-free in steady state. *)
  let row_base = ref 0 in
  let inside col off = m.Matrix.data.(!row_base + col) <- buf.{off} in
  let padded _ = () in
  let per_image = plan.out_h * plan.out_w in
  for row = 0 to plan.rows - 1 do
    let n = row / per_image in
    let rem = row mod per_image in
    row_base := row * plan.patch_len;
    iter_patch plan ~n ~oh:(rem / plan.out_w) ~ow:(rem mod plan.out_w)
      ~inside ~padded
  done;
  m

(* Quantize rows [row_lo, row_hi) of the plan into [mp]/[sp], row [r]
   landing at buffer row [r - row_lo].  Each row writes its own
   [patch_len] slice of [mp] and its own [sp] cell, and quantization
   (including the hash-based stochastic rounding) is a pure function of
   the input value — so any row split, and any chunking of the full row
   range, produces bit-identical codes. *)
let fill_codes ?pool ?(domains = 1) plan input mp sp ~row_lo ~row_hi ~coeffs
    ~round_mode ~signedness =
  let buf = Tensor.buffer input in
  let inv_alpha = 1. /. coeffs.Q.alpha in
  let betaf = float_of_int coeffs.Q.beta in
  (* The zero-point code: what a zero-padding cell quantizes to. *)
  let zero_q = coeffs.Q.beta in
  let zero_code = zero_q land 0xff in
  let clamp_lo = S.min_value signedness and clamp_hi = S.max_value signedness in
  let fill_rows ~lo ~hi =
    (* Hot-path discipline, enforced by the `bench -- gemm` allocation
       gate: closures and refs are created once per sub-range (not per
       row), the row cursor and the Sp accumulator are shared mutable
       state, and the rounding arithmetic is unrolled inline because a
       cross-module [Round.apply] call would box its float argument on
       every tap.  The unrolled branches mirror [Round.apply] literally;
       the qcheck suite pins both to the same rational reference.
       [Stochastic] keeps the library call (and its boxing) — the hash
       is not worth duplicating and that mode is off the default path. *)
    let row_base = ref 0 in
    let acc = ref 0 in
    let inside col off =
      let x = (buf.{off} *. inv_alpha) +. betaf in
      let q =
        match round_mode with
        | Ax_quant.Round.Nearest_even ->
          let f = floor x in
          let frac = x -. f in
          if frac > 0.5 then int_of_float f + 1
          else if frac < 0.5 then int_of_float f
          else begin
            let lo = int_of_float f in
            if lo mod 2 = 0 then lo else lo + 1
          end
        | Ax_quant.Round.Nearest_away -> int_of_float (Float.round x)
        | Ax_quant.Round.Toward_zero -> int_of_float (Float.trunc x)
        | Ax_quant.Round.Stochastic ->
          Ax_quant.Round.apply Ax_quant.Round.Stochastic x
      in
      let q =
        if q < clamp_lo then clamp_lo else if q > clamp_hi then clamp_hi else q
      in
      acc := !acc + q;
      Bytes.unsafe_set mp (!row_base + col) (Char.unsafe_chr (q land 0xff))
    in
    let padded col =
      acc := !acc + zero_q;
      Bytes.unsafe_set mp (!row_base + col) (Char.unsafe_chr zero_code)
    in
    let per_image = plan.out_h * plan.out_w in
    for row = lo to hi - 1 do
      let n = row / per_image in
      let rem = row mod per_image in
      row_base := (row - row_lo) * plan.patch_len;
      acc := 0;
      iter_patch plan ~n ~oh:(rem / plan.out_w) ~ow:(rem mod plan.out_w)
        ~inside ~padded;
      sp.(row - row_lo) <- !acc
    done
  in
  match pool with
  | Some p when domains > 1 && row_hi - row_lo > 1 ->
    Pool.parallel_for p ~max_domains:domains ~lo:row_lo ~hi:row_hi fill_rows
  | Some _ | None -> if row_lo < row_hi then fill_rows ~lo:row_lo ~hi:row_hi

let to_codes plan input ~coeffs ~round_mode ~signedness =
  if not (Shape.equal (Tensor.shape input) plan.input_shape) then
    invalid_arg "Im2col.to_codes: input shape differs from plan";
  let mp = Bytes.create (plan.rows * plan.patch_len) in
  let sp = Array.make plan.rows 0 in
  fill_codes plan input mp sp ~row_lo:0 ~row_hi:plan.rows ~coeffs ~round_mode
    ~signedness;
  (mp, sp)

let to_codes_range ?pool ?domains ~scratch plan input ~row_lo ~row_hi ~coeffs
    ~round_mode ~signedness =
  if not (Shape.equal (Tensor.shape input) plan.input_shape) then
    invalid_arg "Im2col.to_codes_range: input shape differs from plan";
  if row_lo < 0 || row_hi < row_lo || row_hi > plan.rows then
    invalid_arg "Im2col.to_codes_range: row range out of bounds";
  let rows = row_hi - row_lo in
  let mp = Scratch.mp scratch (rows * plan.patch_len) in
  let sp = Scratch.sp scratch rows in
  fill_codes ?pool ?domains plan input mp sp ~row_lo ~row_hi ~coeffs
    ~round_mode ~signedness;
  (mp, sp)
