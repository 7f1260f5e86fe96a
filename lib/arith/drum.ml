let approximate_operand ~k x =
  if k < 2 then invalid_arg "Drum.approximate_operand: k must be >= 2";
  if x < 0 then invalid_arg "Drum.approximate_operand: negative operand";
  let l = Mitchell.leading_one_position x in
  if l < k then x
  else begin
    let shift = l - k + 1 in
    let window = (x lsr shift) lor 1 in
    window lsl shift
  end

let multiply ~k a b =
  let a' = approximate_operand ~k a and b' = approximate_operand ~k b in
  a' * b'
