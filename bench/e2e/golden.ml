(* Golden output digests for seed 1: MD5 of the output tensor bits of
   each distinct batch, of the serve reference predictions, and of the
   explore fronts.  They hold for any domain count.  To regenerate after
   a deliberate change of output bits, run every workload with --seed 1
   and --smoke, and copy the "<workload> digest <label> <md5>" lines. *)

let table =
  [
    (("resnet8-batch", 1, "batch0"), "484c92c3e8f69b8d80fa4dd01da17e24");
    (("resnet8-batch", 1, "batch1"), "97de621a660bcf6d61b301fb951557c7");
    (("resnet8-batch", 1, "batch2"), "49161e31f3bbb20e54c1b1193e8bb10e");
    (("resnet8-batch", 1, "batch3"), "4d04eb6caf84c8d1fd4709126b9e5d10");
    (("mobilenet-batch", 1, "batch0"), "dbb991daf9459c8feebb1e5a325ad8ed");
    (("mobilenet-batch", 1, "batch1"), "81d786b26b8ea69cacba460612ccaa11");
    (("mobilenet-batch", 1, "batch2"), "46cad176071818c448edbb9e80c001ff");
    (("mobilenet-batch", 1, "batch3"), "bab299671771c00954e970e65320b79b");
    (("serve-resnet8", 1, "predictions"), "0ccda43b2b972ca5c9857c1f31edab7f");
    (("explore-lenet", 1, "front"), "8d7f50180ec18470739d6c0c841b2da5");
    (("explore-lenet", 1, "front-smoke"), "7fc9d1ff8bf3a248fa56f215fa03c6fe");
  ]

let find ~workload ~seed ~label = List.assoc_opt (workload, seed, label) table
