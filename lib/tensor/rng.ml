type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }
let of_state state = { state }
let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let x = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem x (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.

let gaussian t =
  let rec draw () =
    let u = float t in
    if u <= 1e-12 then draw () else u
  in
  let u1 = draw () and u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let split t = { state = mix (next_int64 t) }
