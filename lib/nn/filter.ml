type t = {
  kh : int;
  kw : int;
  in_c : int;
  out_c : int;
  data : float array;  (* HWCK, K fastest *)
}

let create ~kh ~kw ~in_c ~out_c =
  if kh <= 0 || kw <= 0 || in_c <= 0 || out_c <= 0 then
    invalid_arg "Filter.create: non-positive extent";
  { kh; kw; in_c; out_c; data = Array.make (kh * kw * in_c * out_c) 0. }

let kh t = t.kh
let kw t = t.kw
let in_c t = t.in_c
let out_c t = t.out_c
let taps t = t.kh * t.kw * t.in_c
let num_weights t = Array.length t.data
let offset t ~h ~w ~c ~k = ((((h * t.kw) + w) * t.in_c + c) * t.out_c) + k

let get t ~h ~w ~c ~k =
  if h < 0 || h >= t.kh || w < 0 || w >= t.kw || c < 0 || c >= t.in_c
     || k < 0 || k >= t.out_c
  then invalid_arg "Filter.get: index out of range";
  t.data.(offset t ~h ~w ~c ~k)

let set t ~h ~w ~c ~k v =
  if h < 0 || h >= t.kh || w < 0 || w >= t.kw || c < 0 || c >= t.in_c
     || k < 0 || k >= t.out_c
  then invalid_arg "Filter.set: index out of range";
  t.data.(offset t ~h ~w ~c ~k) <- v

let of_array ~kh ~kw ~in_c ~out_c data =
  let t = create ~kh ~kw ~in_c ~out_c in
  if Array.length data <> Array.length t.data then
    invalid_arg
      (Printf.sprintf "Filter.of_array: %d values for %dx%dx%dx%d"
         (Array.length data) kh kw in_c out_c);
  Array.blit data 0 t.data 0 (Array.length data);
  t

let to_array t = Array.copy t.data

(* A plain loop keeps [mn] and [mx] unboxed: one call allocates only the
   result pair, however many weights the bank holds. *)
let min_max t =
  let d = t.data in
  let mn = ref d.(0) and mx = ref d.(0) in
  for i = 1 to Array.length d - 1 do
    let v = d.(i) in
    if v < !mn then mn := v;
    if v > !mx then mx := v
  done;
  (!mn, !mx)

let fill_he_normal rng t =
  let stddev = sqrt (2. /. float_of_int (taps t)) in
  Array.iteri
    (fun i _ -> t.data.(i) <- stddev *. Ax_tensor.Rng.gaussian rng)
    t.data

let macs_per_position t = taps t * t.out_c

let raw_data t = t.data
let tap_index t ~h ~w ~c = ((h * t.kw) + w) * t.in_c + c

let iter t f =
  for h = 0 to t.kh - 1 do
    for w = 0 to t.kw - 1 do
      for c = 0 to t.in_c - 1 do
        for k = 0 to t.out_c - 1 do
          f ~h ~w ~c ~k t.data.(offset t ~h ~w ~c ~k)
        done
      done
    done
  done
