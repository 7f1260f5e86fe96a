(* Order statistics shared by the benchmark and the comparator. *)

let sorted xs = List.sort compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), the method the benchmark's spread
   rule is stated in, so both sides of a comparison compute the same
   numbers.  Fewer than two values have no spread: both quartiles are
   the value itself. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 1]. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Spearman rank correlation; tied values share their mean rank.  Zero
   when either side is constant or there are fewer than two pairs. *)
let spearman xs ys =
  let ranks v =
    let n = Array.length v in
    let idx = Array.init n Fun.id in
    Array.stable_sort (fun i j -> compare v.(i) v.(j)) idx;
    let r = Array.make n 0. in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j + 1 < n && v.(idx.(!j + 1)) = v.(idx.(!i)) do incr j done;
      let mean_rank = float_of_int (!i + !j) /. 2. in
      for k = !i to !j do r.(idx.(k)) <- mean_rank done;
      i := !j + 1
    done;
    r
  in
  let n = Array.length xs in
  if n < 2 || n <> Array.length ys then 0.
  else
    let rx = ranks xs and ry = ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let cov = ref 0. and vx = ref 0. and vy = ref 0. in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy)
    done;
    if !vx = 0. || !vy = 0. then 0. else !cov /. sqrt (!vx *. !vy)
