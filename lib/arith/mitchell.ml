let fraction_bits = 16
let fraction_mask = (1 lsl fraction_bits) - 1

(* Binary search for the top set bit: halving widths 32, 16, ..., 1
   cover all 63 bits in six steps. *)
let rec top_bit x pos width =
  if width = 0 then pos
  else if x lsr width <> 0 then top_bit (x lsr width) (pos + width) (width / 2)
  else top_bit x pos (width / 2)

let leading_one_position x = if x = 0 then -1 else top_bit x 0 32

let log2_fixed x =
  if x <= 0 then invalid_arg "Mitchell.log2_fixed: non-positive argument";
  let l = leading_one_position x in
  let mantissa = x - (1 lsl l) in
  (l lsl fraction_bits) + ((mantissa lsl fraction_bits) lsr l)

let multiply a b =
  if a < 0 || b < 0 then invalid_arg "Mitchell.multiply: negative operand";
  if a = 0 || b = 0 then 0
  else begin
    let s = log2_fixed a + log2_fixed b in
    let integer = s lsr fraction_bits in
    let fraction = s land fraction_mask in
    (* antilog: 2^integer * (1 + fraction) *)
    (((1 lsl fraction_bits) + fraction) lsl integer) lsr fraction_bits
  end
