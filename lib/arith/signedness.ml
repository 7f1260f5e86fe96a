type t = Signed | Unsigned

let equal a b =
  match (a, b) with
  | Signed, Signed | Unsigned, Unsigned -> true
  | Signed, Unsigned | Unsigned, Signed -> false

let to_string = function Signed -> "signed" | Unsigned -> "unsigned"
let pp ppf s = Format.pp_print_string ppf (to_string s)
let min_value = function Signed -> -128 | Unsigned -> 0
let max_value = function Signed -> 127 | Unsigned -> 255
let in_range s v = v >= min_value s && v <= max_value s

let code_of_value s v =
  if not (in_range s v) then
    invalid_arg
      (Printf.sprintf "Signedness.code_of_value: %d out of %s range" v
         (to_string s));
  v land 0xff

let value_of_code s c =
  if c < 0 || c > 255 then
    invalid_arg "Signedness.value_of_code: code out of range";
  match s with
  | Unsigned -> c
  | Signed -> if c >= 128 then c - 256 else c

(* Int comparisons, not [Stdlib.min]/[max]: without flambda those are
   calls to the generic compare, and this runs on every quantized tap. *)
let clamp s v =
  let lo = min_value s and hi = max_value s in
  if v < lo then lo else if v > hi then hi else v

let max_abs_product = function
  | Unsigned -> 255 * 255
  | Signed -> 128 * 128
