(** Accelerator energy model — the quantity the whole exercise is about.

    The paper's opening motivation: "a significant power consumption
    reduction of the DNN hardware accelerator can be obtained by
    introducing ... approximate arithmetic circuits".  The emulator
    measures the *accuracy* side of that trade; this module supplies the
    energy side, from the same unit-gate circuit metrics that
    {!Ax_netlist.Power} produces, so error/energy Pareto fronts close
    end to end.

    Units are relative (normalised to the exact 8x8 multiplier MAC);
    the literature's comparisons are relative too. *)

type mac_profile = {
  multiplier_energy : float;  (** switching-power proxy of the multiplier *)
  accumulator_energy : float; (** adder share of one MAC *)
}

val exact_mac : mac_profile Lazy.t
(** The reference MAC: exact carry-save array multiplier + exact 32-bit
    ripple accumulator slice. *)

val mac_of_report : Ax_netlist.Power.report -> mac_profile
(** A MAC built around the multiplier circuit that [report] describes
    (accumulator share taken from the exact reference).  Taking the
    report, not the circuit, lets a caller that also ranks by area or
    delay pay for one {!Ax_netlist.Power.analyze} sweep, not two. *)

val total : mac_profile -> float
(** [multiplier_energy + accumulator_energy]. *)

val relative_mac_energy : mac_profile -> float
(** Energy of one MAC relative to {!exact_mac} (1.0 = no saving).
    Always finite: a profile with a NaN, infinite or negative component
    raises [Invalid_argument] instead of leaking a NaN into Pareto
    dominance comparisons.  A degenerate all-Buf/Const multiplier is
    {e not} an error — its multiplier energy is 0 and the accumulator
    share keeps the ratio positive. *)

val network_energy :
  mac_profile -> macs:float -> float
(** Total relative datapath energy for a workload of [macs]
    multiply-accumulates (normalised so the exact MAC costs 1 per op). *)

val savings_percent : mac_profile -> float
(** [100 * (1 - relative_mac_energy)] — the headline number a candidate
    multiplier buys, before accuracy is considered. *)
