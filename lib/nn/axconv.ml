module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Q = Ax_quant.Quantization
module Round = Ax_quant.Round
module Range = Ax_quant.Range
module Lut = Ax_arith.Lut
module S = Ax_arith.Signedness
module Pool = Ax_pool.Pool

type granularity = Per_tensor | Per_channel

type config = {
  lut : Lut.t;
  round_mode : Round.t;
  chunk_size : int;
  granularity : granularity;
  accumulator : Accumulator.t;
  domains : int;
}

let default_chunk_size = 250

let make_config ?(round_mode = Round.Nearest_even)
    ?(chunk_size = default_chunk_size) ?(granularity = Per_tensor)
    ?(accumulator = Accumulator.Wide) ?(domains = 1) lut =
  if chunk_size <= 0 then invalid_arg "Axconv.make_config: chunk_size";
  Pool.validate_domains ~what:"Axconv.make_config" domains;
  Accumulator.validate accumulator;
  { lut; round_mode; chunk_size; granularity; accumulator; domains }

let filter_coeffs granularity signedness filter filter_range =
  let out_c = Filter.out_c filter in
  match granularity with
  | Per_tensor ->
    let c =
      Q.compute_coeffs signedness ~rmin:filter_range.Range.min
        ~rmax:filter_range.Range.max
    in
    Array.make out_c c
  | Per_channel ->
    let mins = Array.make out_c infinity in
    let maxs = Array.make out_c neg_infinity in
    Filter.iter filter (fun ~h:_ ~w:_ ~c:_ ~k v ->
        if v < mins.(k) then mins.(k) <- v;
        if v > maxs.(k) then maxs.(k) <- v);
    let fmin = filter_range.Range.min and fmax = filter_range.Range.max in
    Array.init out_c (fun k ->
        (* Each channel quantizes over its own observed bounds clipped to
           the supplied filter range — the range is the layer's contract
           for what the hardware must represent, so a channel may not
           exceed it.  Channels whose bounds are unusable (weights
           containing NaN leave them at ±infinity, an all-infinite
           channel inverts them) fall back to the supplied range, and a
           non-finite supplied range degrades to the all-zero range —
           [compute_coeffs] then picks its degenerate positive scale, so
           the returned alpha is always finite. *)
        let rmin = Float.max mins.(k) fmin and rmax = Float.min maxs.(k) fmax in
        let rmin, rmax =
          if Float.is_finite rmin && Float.is_finite rmax && rmin <= rmax then
            (rmin, rmax)
          else if Float.is_finite fmin && Float.is_finite fmax && fmin <= fmax
          then (fmin, fmax)
          else (0., 0.)
        in
        Q.compute_coeffs signedness ~rmin ~rmax)

let quantize_filters_per_channel signedness coeffs round_mode filter =
  let taps = Filter.taps filter and out_c = Filter.out_c filter in
  if Array.length coeffs <> out_c then
    invalid_arg "Axconv.quantize_filters_per_channel: coeffs length";
  let mf_t = Bytes.create (out_c * taps) in
  let sf = Array.make out_c 0 in
  Filter.iter filter (fun ~h ~w ~c ~k v ->
      let ck = coeffs.(k) in
      let q =
        S.clamp signedness
          (Round.apply round_mode
             ((v /. ck.Q.alpha) +. float_of_int ck.Q.beta))
      in
      sf.(k) <- sf.(k) + q;
      let tap = ((h * Filter.kw filter) + w) * Filter.in_c filter + c in
      Bytes.unsafe_set mf_t ((k * taps) + tap) (Char.unsafe_chr (q land 0xff)));
  (mf_t, sf)

let quantize_filters signedness coeffs round_mode filter =
  quantize_filters_per_channel signedness
    (Array.make (Filter.out_c filter) coeffs)
    round_mode filter

(* Register/cache blocking for the ApproxGEMM.  An accumulator block of
   [tile_rows] patch rows by [tile_cols] output channels stays resident
   while [tile_taps] taps stream through it.  With the patch code [ca]
   fixed, the inner channel loop reads one contiguous run of the
   tap-major packed filter codes and stays inside one 256-entry
   (512-byte) row of the LUT, so both live in L1.  Tap blocks ascend,
   and within a block the loop order is row, then tap, then channel: for
   any fixed (row, channel) pair the products still arrive in ascending
   tap order, which is what keeps every [Accumulator] model —
   saturating, wrapping, lower-OR — bit-identical to the unblocked
   kernel.  [Wide] is order-independent anyway. *)
let tile_rows = 8
let tile_cols = 64
let tile_taps = 128

(* Dynamic-claim grain for the GEMM row fan-out: a few tiles per claim
   keeps the atomic-counter overhead invisible while letting idle
   domains steal from a slow one.  Any grain yields bit-identical
   output — each patch row is produced entirely by whichever domain
   claims it — so this is a pure latency knob. *)
let gemm_grain = 4 * tile_rows

let conv ?profile ?pool ?scratch ~config ~input ~input_range ~filter
    ~filter_range ?bias ~spec () =
  (match bias with
  | Some b when Array.length b <> Filter.out_c filter ->
    invalid_arg "Axconv.conv: bias length differs from filter count"
  | Some _ | None -> ());
  (* Resolve the worker pool once per conv: an explicit [pool] wins, a
     multi-domain config borrows the process-wide pool, and the
     single-domain default stays entirely pool-free. *)
  let pool =
    match pool with
    | Some _ as p -> p
    | None ->
      if config.domains > 1 then Some (Pool.ensure ~domains:config.domains)
      else None
  in
  let charge phase f =
    match profile with Some p -> Profile.time p phase f | None -> f ()
  in
  let span name attrs f =
    match profile with
    | Some p -> Profile.span p ~name ~attrs f
    | None -> f ()
  in
  let note name n =
    match profile with Some p -> Profile.count p name n | None -> ()
  in
  let lut = config.lut in
  let signedness = Lut.signedness lut in
  let out_shape = Conv_spec.output_shape spec (Tensor.shape input) filter in
  let effective_domains =
    match pool with
    | Some p -> Int.min config.domains (Pool.size p)
    | None -> 1
  in
  span "axconv.conv"
    [
      ( "out_shape",
        Printf.sprintf "%dx%dx%dx%d" out_shape.Shape.n out_shape.Shape.h
          out_shape.Shape.w out_shape.Shape.c );
      ("taps", string_of_int (Filter.taps filter));
      ("out_c", string_of_int (Filter.out_c filter));
      ("chunk_size", string_of_int config.chunk_size);
      ("domains", string_of_int effective_domains);
    ]
  @@ fun () ->
  let out = charge Profile.Init (fun () -> Tensor.create out_shape) in
  (* The chunk-reusable buffers ([mp]/[sp]/[pf]) come from the caller's
     arena (default: this domain's); the accumulator tile always comes
     from the executing domain's own arena, so pool workers stay
     allocation-free too. *)
  let scratch =
    match scratch with Some s -> s | None -> Scratch.domain_local ()
  in
  (* ComputeCoeffs for both operands, then quantize the filter bank once
     for the whole batch. *)
  let coeffs1, coeffs2, mf_t, sf =
    charge Profile.Quantization (fun () ->
        let coeffs1 =
          Q.compute_coeffs signedness ~rmin:input_range.Range.min
            ~rmax:input_range.Range.max
        in
        let coeffs2 =
          filter_coeffs config.granularity signedness filter filter_range
        in
        let mf_t, sf =
          quantize_filters_per_channel signedness coeffs2 config.round_mode
            filter
        in
        (coeffs1, coeffs2, mf_t, sf))
  in
  let taps = Filter.taps filter and out_c = Filter.out_c filter in
  let beta1 = coeffs1.Q.beta in
  (* Per-channel dequantization constants (all equal when per-tensor). *)
  let alpha12 = Array.map (fun c -> coeffs1.Q.alpha *. c.Q.alpha) coeffs2 in
  let beta2 = Array.map (fun c -> c.Q.beta) coeffs2 in
  let n_beta12 = Array.map (fun b2 -> taps * beta1 * b2) beta2 in
  (* Repack the filter codes tap-major ([pf.(p * out_c + k)]): the
     blocked kernel walks channels innermost, and this layout makes that
     walk contiguous.  Once per conv, straight out of the filter-major
     bank. *)
  let pf =
    charge Profile.Quantization (fun () ->
        let pf = Scratch.pf scratch (taps * out_c) in
        for k = 0 to out_c - 1 do
          let mf_base = k * taps in
          for p = 0 to taps - 1 do
            Bytes.unsafe_set pf ((p * out_c) + k)
              (Bytes.unsafe_get mf_t (mf_base + p))
          done
        done;
        pf)
  in
  let corr = Lut.decode_correction lut in
  (* Hoisted table: without cross-module inlining, [Lut.unsafe_raw]
     would cost a call per MAC. *)
  let table = Lut.table lut in
  let in_shape = Tensor.shape input in
  let images = Shape.(in_shape.n) in
  let out_buf = Tensor.buffer out in
  (* One plan for the whole batch; a chunk is a row range of it, lowered
     into the arena with [to_codes_range] — no per-chunk batch slice. *)
  let plan =
    Im2col.make in_shape ~kh:(Filter.kh filter) ~kw:(Filter.kw filter) ~spec
  in
  let rows_per_image = plan.Im2col.out_h * plan.Im2col.out_w in
  let patch_len = plan.Im2col.patch_len in
  let accumulator = config.accumulator in
  let start = ref 0 in
  let chunk_idx = ref 0 in
  while !start < images do
    let count = Int.min config.chunk_size (images - !start) in
    let row_lo = !start * rows_per_image in
    let chunk_rows = count * rows_per_image in
    let run_chunk () =
      let mp, sp =
        charge Profile.Quantization (fun () ->
            Im2col.to_codes_range ?pool ~domains:config.domains ~scratch
              plan input ~row_lo
              ~row_hi:(row_lo + chunk_rows) ~coeffs:coeffs1
              ~round_mode:config.round_mode ~signedness)
      in
      (* ApproxGEMM over buffer rows [lo, hi) of the chunk (buffer row
         [r] is plan row [row_lo + r]).  One output row is produced
         entirely by one worker, so splitting the row range across
         domains cannot change any result bit. *)
      let gemm_rows lo hi =
        let acc = Scratch.acc (Scratch.domain_local ()) (tile_rows * out_c) in
        let r0 = ref lo in
        while !r0 < hi do
          let r1 = Int.min hi (!r0 + tile_rows) in
          let k0 = ref 0 in
          while !k0 < out_c do
            let k1 = Int.min out_c (!k0 + tile_cols) in
            for r = !r0 to r1 - 1 do
              Array.fill acc (((r - !r0) * out_c) + !k0) (k1 - !k0) 0
            done;
            let p0 = ref 0 in
            while !p0 < taps do
              let p1 = Int.min taps (!p0 + tile_taps) in
              (match accumulator with
              | Accumulator.Wide when corr = 0 ->
                (* Fastest path: unsigned LUT entries decode to
                   themselves, so the lookup is a bare table read. *)
                for r = !r0 to r1 - 1 do
                  let mp_base = (r * patch_len) in
                  let acc_base = (r - !r0) * out_c in
                  for p = !p0 to p1 - 1 do
                    let ca_sh =
                      Char.code (Bytes.unsafe_get mp (mp_base + p)) lsl 8
                    in
                    let pf_base = p * out_c in
                    for k = !k0 to k1 - 1 do
                      let cb = Char.code (Bytes.unsafe_get pf (pf_base + k)) in
                      let raw =
                        Bigarray.Array1.unsafe_get table (ca_sh lor cb)
                      in
                      let i = acc_base + k in
                      Array.unsafe_set acc i (Array.unsafe_get acc i + raw)
                    done
                  done
                done
              | Accumulator.Wide ->
                (* Fast path: no per-step clamping, and the signed
                   decode is the branch-free [raw - sign_bit * corr]
                   (equal to [Lut.lookup_code] bit for bit). *)
                for r = !r0 to r1 - 1 do
                  let mp_base = (r * patch_len) in
                  let acc_base = (r - !r0) * out_c in
                  for p = !p0 to p1 - 1 do
                    let ca_sh =
                      Char.code (Bytes.unsafe_get mp (mp_base + p)) lsl 8
                    in
                    let pf_base = p * out_c in
                    for k = !k0 to k1 - 1 do
                      let cb = Char.code (Bytes.unsafe_get pf (pf_base + k)) in
                      let raw =
                        Bigarray.Array1.unsafe_get table (ca_sh lor cb)
                      in
                      let i = acc_base + k in
                      Array.unsafe_set acc i
                        (Array.unsafe_get acc i + raw - ((raw lsr 15) * corr))
                    done
                  done
                done
              | Accumulator.Saturating _ | Accumulator.Wrapping _
              | Accumulator.Lower_or _ ->
                for r = !r0 to r1 - 1 do
                  let mp_base = (r * patch_len) in
                  let acc_base = (r - !r0) * out_c in
                  for p = !p0 to p1 - 1 do
                    let ca_sh =
                      Char.code (Bytes.unsafe_get mp (mp_base + p)) lsl 8
                    in
                    let pf_base = p * out_c in
                    for k = !k0 to k1 - 1 do
                      let cb = Char.code (Bytes.unsafe_get pf (pf_base + k)) in
                      let raw =
                        Bigarray.Array1.unsafe_get table (ca_sh lor cb)
                      in
                      let v = raw - ((raw lsr 15) * corr) in
                      let i = acc_base + k in
                      Array.unsafe_set acc i
                        (Accumulator.add accumulator (Array.unsafe_get acc i)
                           v)
                    done
                  done
                done);
              p0 := p1
            done;
            (* Dequantize the finished block with the Eq. 4
               corrections — the same per-(row, channel) expression as
               ever, so the float bits cannot move. *)
            for r = !r0 to r1 - 1 do
              let sp_row = sp.(r) in
              let acc_base = (r - !r0) * out_c in
              let out_base = (row_lo + r) * out_c in
              for k = !k0 to k1 - 1 do
                let corrected =
                  acc.(acc_base + k) - (beta2.(k) * sp_row) - (beta1 * sf.(k))
                  + n_beta12.(k)
                in
                let v = alpha12.(k) *. float_of_int corrected in
                let v = match bias with Some b -> v +. b.(k) | None -> v in
                out_buf.{out_base + k} <- v
              done
            done;
            k0 := k1
          done;
          r0 := r1
        done
      in
      (* Chunk rows are claimed a few tiles at a time: whichever domain
         finishes its tiles first takes the next range, so one slow
         domain does not stall the chunk.  Output rows are produced
         whole by their claiming domain, hence bit-identical for any
         domain count. *)
      charge Profile.Lut (fun () ->
          match pool with
          | Some p ->
            Pool.parallel_for p ~max_domains:config.domains
              ~grain:gemm_grain ~lo:0 ~hi:chunk_rows (fun ~lo ~hi ->
                gemm_rows lo hi)
          | None -> gemm_rows 0 chunk_rows);
      (* Per-chunk accounting runs exactly once per chunk, on the
         coordinating domain, after the parallel region has joined — so
         a multi-chunk batch reports the sum over its chunks no matter
         how the rows were split. *)
      (match profile with
      | Some p ->
        Profile.count_lut_lookups p (chunk_rows * out_c * taps);
        Profile.count_macs p (chunk_rows * out_c * taps)
      | None -> ());
      note "im2col_bytes" (chunk_rows * patch_len);
      note "chunks" 1
    in
    (* Only build the chunk span (and its attribute strings) when a
       profile is actually attached — the hot loop must not allocate per
       chunk just to describe itself.  The per-chunk latency histogram
       rides the same guard. *)
    (match profile with
    | Some p ->
      let chunk_start = Unix.gettimeofday () in
      Profile.span p ~name:"axconv.chunk"
        ~attrs:
          [
            ("chunk", string_of_int !chunk_idx);
            ("images", string_of_int count);
          ]
        run_chunk;
      Profile.observe p "gemm_chunk_seconds"
        (Unix.gettimeofday () -. chunk_start)
    | None -> run_chunk ());
    start := !start + count;
    incr chunk_idx
  done;
  (match (profile, pool) with
  | Some p, Some pl -> Pool.publish pl (Profile.metrics p)
  | (Some _ | None), _ -> ());
  out
