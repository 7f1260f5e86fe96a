module Shape = Ax_tensor.Shape
module Tensor = Ax_tensor.Tensor
module Matrix = Ax_tensor.Matrix

let check_bias filter = function
  | None -> ()
  | Some b ->
    if Array.length b <> Filter.out_c filter then
      invalid_arg "Conv_float: bias length differs from filter count"

let direct ~input ~filter ?bias ~spec () =
  check_bias filter bias;
  let out_shape = Conv_spec.output_shape spec (Tensor.shape input) filter in
  let out = Tensor.create out_shape in
  let s = Tensor.shape input in
  let plan =
    Im2col.make s ~kh:(Filter.kh filter) ~kw:(Filter.kw filter) ~spec
  in
  let in_c = Shape.(s.c) and out_c = Filter.out_c filter in
  for n = 0 to Shape.(s.n) - 1 do
    for oh = 0 to plan.Im2col.out_h - 1 do
      for ow = 0 to plan.Im2col.out_w - 1 do
        let base_h = (oh * spec.Conv_spec.stride) - plan.Im2col.pad_top in
        let base_w = (ow * spec.Conv_spec.stride) - plan.Im2col.pad_left in
        for k = 0 to out_c - 1 do
          let acc = ref 0. in
          for dh = 0 to Filter.kh filter - 1 do
            let h = base_h + (dh * spec.Conv_spec.dilation) in
            if h >= 0 && h < Shape.(s.h) then
              for dw = 0 to Filter.kw filter - 1 do
                let w = base_w + (dw * spec.Conv_spec.dilation) in
                if w >= 0 && w < Shape.(s.w) then
                  for c = 0 to in_c - 1 do
                    acc :=
                      !acc
                      +. Tensor.get input ~n ~h ~w ~c
                         *. Filter.get filter ~h:dh ~w:dw ~c ~k
                  done
              done
          done;
          let acc =
            match bias with Some b -> !acc +. b.(k) | None -> !acc
          in
          Tensor.set out ~n ~h:oh ~w:ow ~c:k acc
        done
      done
    done
  done;
  out

(* Filters as a (patch_len x out_c) matrix: row index runs over HWC taps
   in the same order [Im2col.iter_patch] emits them. *)
let filter_matrix filter =
  let rows = Filter.taps filter and cols = Filter.out_c filter in
  let m = Matrix.create ~rows ~cols in
  Filter.iter filter (fun ~h ~w ~c ~k v ->
      let row = ((h * Filter.kw filter) + w) * Filter.in_c filter + c in
      Matrix.set m row k v);
  m

let gemm ?profile ?scratch ~input ~filter ?bias ~spec () =
  check_bias filter bias;
  let out_shape = Conv_spec.output_shape spec (Tensor.shape input) filter in
  let plan =
    Im2col.make (Tensor.shape input) ~kh:(Filter.kh filter)
      ~kw:(Filter.kw filter) ~spec
  in
  let out, fm =
    Profile.time profile Profile.Init (fun () ->
        (Tensor.create out_shape, filter_matrix filter))
  in
  let patches =
    Profile.time profile Profile.Other (fun () ->
        Im2col.to_matrix ?scratch plan input)
  in
  let product =
    Profile.time profile Profile.Other (fun () -> Matrix.matmul patches fm)
  in
  Profile.time profile Profile.Other (fun () ->
      let out_c = Filter.out_c filter in
      let buf = Tensor.buffer out in
      for row = 0 to plan.Im2col.rows - 1 do
        let src = row * out_c and dst = row * out_c in
        for k = 0 to out_c - 1 do
          let v = product.Matrix.data.(src + k) in
          let v = match bias with Some b -> v +. b.(k) | None -> v in
          buf.{dst + k} <- v
        done
      done);
  (match profile with
  | Some p -> Profile.count_macs p (Conv_spec.macs spec (Tensor.shape input) filter)
  | None -> ());
  out
