(* One mask of kept [b] bits per row [i], built when [~bits ~keep] are
   applied: the product adds [(b land row_i) lsl i] for each set bit [i]
   of [a]. *)
let pruned ~bits ~keep =
  let rows =
    Array.init bits (fun i ->
        let row = ref 0 in
        for j = 0 to bits - 1 do
          if keep i j then row := !row lor (1 lsl j)
        done;
        !row)
  in
  let width = (1 lsl (2 * bits)) - 1 in
  fun a b ->
    let acc = ref 0 in
    for i = 0 to bits - 1 do
      if (a lsr i) land 1 = 1 then acc := !acc + ((b land rows.(i)) lsl i)
    done;
    !acc land width

let truncated ~bits ~cut = pruned ~bits ~keep:(fun i j -> i + j >= cut)

let broken_array ~bits ~hbl ~vbl =
  pruned ~bits ~keep:(fun i j -> i + j >= vbl && j >= hbl)
