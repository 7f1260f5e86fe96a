(* One end-to-end system test: the full adoption path a downstream user
   walks, in a single scenario — build a model, transform it with a
   catalogue multiplier, run every backend, estimate GPU time and
   energy, calibrate, fine-tune, serialize, reload, and check the whole
   chain stays consistent. *)

module Tensor = Ax_tensor.Tensor
module Graph = Ax_nn.Graph
module Exec = Ax_nn.Exec
module Cifar = Ax_data.Cifar
module Resnet = Ax_models.Resnet
module Emulator = Tfapprox.Emulator
module Energy = Ax_gpusim.Energy
module Cost = Ax_gpusim.Cost
module Trainer = Ax_train.Trainer

let check_bool = Alcotest.(check bool)

let test_full_pipeline () =
  (* 1. model + data *)
  let graph = Resnet.build ~depth:8 () in
  let dataset = Cifar.generate ~n:8 () in
  let images = dataset.Cifar.images in
  let reference = Emulator.predictions graph ~backend:Emulator.Cpu_accurate images in

  (* 2. pick a multiplier, check its hardware story *)
  let multiplier = "mul8u_trunc8" in
  let netlist = Ax_netlist.Multipliers.truncated ~bits:8 ~cut:8 in
  let mac =
    Energy.mac_of_report
      (Ax_netlist.Power.analyze netlist.Ax_netlist.Multipliers.circuit)
  in
  let savings = Energy.savings_percent mac in
  check_bool
    (Printf.sprintf "truncation saves energy (%.1f%%)" savings)
    true
    (savings > 5. && savings < 90.);

  (* 3. transform and emulate on both CPU strategies *)
  let approx = Emulator.approximate_model ~multiplier graph in
  let gemm = Emulator.run ~backend:Emulator.Cpu_gemm approx images in
  let direct = Emulator.run ~backend:Emulator.Cpu_direct approx images in
  check_bool "strategies bit-identical" true (Tensor.max_abs_diff gemm direct = 0.);
  let preds = Ax_nn.Layers.argmax_channels gemm in
  let fidelity = Emulator.agreement reference preds in
  check_bool (Printf.sprintf "fidelity sane (%.2f)" fidelity) true
    (fidelity >= 0. && fidelity <= 1.);

  (* 4. GPU estimate: approximate pipeline slower than accurate, both
     positive; energy scales with MACs *)
  let input_shape = Resnet.input_shape ~batch:1 in
  let acc_kernels, _ =
    Emulator.estimate_gpu_time ~graph ~input:input_shape ~images:10_000 ()
  in
  let apx_kernels, init =
    Emulator.estimate_gpu_time ~graph:approx ~input:input_shape
      ~images:10_000 ()
  in
  let seconds = function `Accurate p | `Approximate p -> Cost.total p in
  check_bool "emulation overhead on GPU" true
    (seconds apx_kernels > seconds acc_kernels);
  check_bool "init positive" true (init.Cost.init_s > 0.);
  let macs = float_of_int (Resnet.macs_per_image ~depth:8) *. 10_000. in
  check_bool "network energy positive and sub-exact" true
    (Energy.network_energy mac ~macs < macs
    && Energy.network_energy mac ~macs > 0.);

  (* 5. calibrate, then serialize the calibrated model and reload *)
  let calibrated =
    Tfapprox.Calibrate.bias_correct ~sample:images approx
  in
  let bytes = Ax_nn.Model_io.to_bytes calibrated in
  let reloaded = Ax_nn.Model_io.of_bytes bytes in
  check_bool "calibrated model roundtrips bit-exactly" true
    (Tensor.max_abs_diff
       (Exec.run calibrated ~input:images)
       (Exec.run reloaded ~input:images)
    = 0.);

  (* 6. one epoch of straight-through fine-tuning must leave the model
     runnable and finite *)
  let config =
    { Trainer.default_config with Trainer.epochs = 1; batch_size = 4;
      learning_rate = 0.01 }
  in
  let history =
    Trainer.train config reloaded (Cifar.normalize dataset)
  in
  check_bool "training loss finite" true
    (Array.for_all Float.is_finite history.Trainer.epoch_losses);
  let out = Exec.run reloaded ~input:images in
  Tensor.iteri_flat
    (fun _ v -> if not (Float.is_finite v) then Alcotest.fail "non-finite")
    out

let test_energy_ordering () =
  (* Deeper truncation => more energy saved, monotonically. *)
  let saving cut =
    Energy.savings_percent
      (Energy.mac_of_report
         (Ax_netlist.Power.analyze
            (Ax_netlist.Multipliers.truncated ~bits:8 ~cut)
              .Ax_netlist.Multipliers.circuit))
  in
  let s0 = saving 0 and s6 = saving 6 and s10 = saving 10 in
  check_bool
    (Printf.sprintf "monotone savings (%.1f < %.1f < %.1f)" s0 s6 s10)
    true
    (s0 < s6 && s6 < s10);
  check_bool "exact saves ~nothing" true (abs_float s0 < 1e-6);
  (* Relative MAC energy of the exact profile is exactly 1. *)
  Alcotest.(check (float 1e-9)) "exact = 1" 1.
    (Energy.relative_mac_energy (Lazy.force Energy.exact_mac))

let () =
  Alcotest.run "ax_system"
    [
      ( "system",
        [
          Alcotest.test_case "full adoption pipeline" `Slow
            test_full_pipeline;
          Alcotest.test_case "energy ordering" `Quick test_energy_ordering;
        ] );
    ]
