(* The Sec. V use-case: "automated design of approximate DNN
   accelerators in which many candidate designs have to be quickly
   evaluated".  For every catalogued 8-bit multiplier this prints the
   arithmetic error profile, the hardware cost of a comparable
   gate-level implementation, and the end-to-end classification
   fidelity on a small ResNet — the Pareto ingredients an accelerator
   designer trades off.

   Run with: dune exec examples/multiplier_explorer.exe *)

module Registry = Ax_arith.Registry
module Metrics = Ax_arith.Error_metrics
module Power = Ax_netlist.Power
module Multipliers = Ax_netlist.Multipliers
module Emulator = Tfapprox.Emulator
module Resnet = Ax_models.Resnet
module Cifar = Ax_data.Cifar

(* Gate-level proxies: hardware cost of the closest structural variant. *)
let hardware_proxy name =
  let circuit_of m = m.Multipliers.circuit in
  let build () =
    if name = "mul8u_exact" || name = "mul8u_drum3" || name = "mul8u_drum4"
       || name = "mul8u_drum6" || name = "mul8u_mitchell"
       || name = "mul8u_kulkarni"
    then Some (circuit_of (Multipliers.unsigned_array ~bits:8))
    else if name = "mul8u_trunc4" then
      Some (circuit_of (Multipliers.truncated ~bits:8 ~cut:4))
    else if name = "mul8u_trunc6" then
      Some (circuit_of (Multipliers.truncated ~bits:8 ~cut:6))
    else if name = "mul8u_trunc8" then
      Some (circuit_of (Multipliers.truncated ~bits:8 ~cut:8))
    else if name = "mul8u_trunc10" then
      Some (circuit_of (Multipliers.truncated ~bits:8 ~cut:10))
    else if name = "mul8u_bam_h2_v6" then
      Some (circuit_of (Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6))
    else if name = "mul8u_bam_h3_v8" then
      Some (circuit_of (Multipliers.broken_array ~bits:8 ~hbl:3 ~vbl:8))
    else None
  in
  build ()

let () =
  let unsigned_entries =
    List.filter
      (fun e ->
        Ax_arith.Signedness.equal e.Registry.signedness
          Ax_arith.Signedness.Unsigned
        && e.Registry.provenance = Registry.Behavioural)
      (Registry.all ())
  in
  Format.printf "%-18s %9s %7s %8s | %8s %7s %8s %9s@." "multiplier" "MAE"
    "WCE" "err-prob" "area" "delay" "power" "MAC e-%";
  List.iter
    (fun e ->
      let m = Metrics.compute_lut (Registry.lut e) in
      (match hardware_proxy e.Registry.name with
      | Some circuit ->
        let r = Power.analyze circuit in
        let savings =
          Ax_gpusim.Energy.savings_percent
            (Ax_gpusim.Energy.mac_of_report r)
        in
        Format.printf "%-18s %9.2f %7d %7.1f%% | %8.0f %7.1f %8.2f %8.1f%%@."
          e.Registry.name m.Metrics.mae m.Metrics.wce
          (100. *. m.Metrics.error_probability)
          r.Power.area r.Power.delay r.Power.power savings
      | None ->
        Format.printf "%-18s %9.2f %7d %7.1f%% | %8s %7s %8s %9s@."
          e.Registry.name m.Metrics.mae m.Metrics.wce
          (100. *. m.Metrics.error_probability)
          "-" "-" "-" "-"))
    unsigned_entries;

  (* End-to-end: which error profiles survive a real network? *)
  Format.printf
    "@.End-to-end fidelity on ResNet-8 (signed variants, 30 images):@.";
  let graph = Resnet.build ~depth:8 () in
  let dataset = Cifar.generate ~n:30 () in
  let reference =
    Emulator.predictions graph ~backend:Emulator.Cpu_accurate
      dataset.Cifar.images
  in
  List.iter
    (fun multiplier ->
      let approx = Emulator.approximate_model ~multiplier graph in
      let preds =
        Emulator.predictions approx ~backend:Emulator.Cpu_gemm
          dataset.Cifar.images
      in
      Format.printf "  %-18s fidelity %5.1f%%@." multiplier
        (100. *. Emulator.agreement reference preds))
    [ "mul8s_exact"; "mul8s_trunc6"; "mul8s_drum4"; "mul8s_mitchell" ];
  Format.printf
    "@.Area/delay/power come from the unit-gate model over the gate-level@.";
  Format.printf
    "netlists in ax_netlist; behavioural-only designs show '-'.@."
