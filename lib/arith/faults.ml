let stuck_at ~bit ~value f a b =
  let p = f a b in
  if value then p lor (1 lsl bit) else p land lnot (1 lsl bit)

let bit_flip ~bit f a b = f a b lxor (1 lsl bit)

let random_flip ~probability ~seed ~bits f a b =
  if probability < 0. || probability > 1. then
    invalid_arg "Faults.random_flip: probability out of [0,1]";
  let p = ref (f a b) in
  let threshold = Int64.of_float (probability *. 9007199254740992.) in
  for bit = 0 to bits - 1 do
    let key =
      Int64.of_int
        ((seed * 0x3FFFFF) lxor (a lsl 24) lxor (b lsl 8) lxor bit)
    in
    (* SplitMix64 over a mixed key: cheap, deterministic and well
       distributed, so per-(a,b,bit) decisions look independent. *)
    let draw =
      Int64.shift_right_logical
        (Ax_tensor.Rng.mix (Int64.add key Ax_tensor.Rng.golden))
        11
    in
    if Int64.unsigned_compare draw threshold < 0 then p := !p lxor (1 lsl bit)
  done;
  !p
