module Power = Ax_netlist.Power
module Multipliers = Ax_netlist.Multipliers

type mac_profile = {
  multiplier_energy : float;
  accumulator_energy : float;
}

(* A 32-bit accumulate costs roughly four 8-bit ripple slices of
   switching power; estimate one slice from an actual adder netlist. *)
let accumulator_share =
  lazy
    (let c = Ax_netlist.Circuit.create ~name:"acc_slice" () in
     let a = Ax_netlist.Bus.input c "a" 8 in
     let b = Ax_netlist.Bus.input c "b" 8 in
     let sum, carry = Ax_netlist.Adders.ripple_carry c a b in
     Ax_netlist.Bus.output c "s" sum;
     Ax_netlist.Circuit.output c "cout" carry;
     4. *. (Power.analyze c).Power.power)

let mac_of_report report =
  {
    multiplier_energy = report.Power.power;
    accumulator_energy = Lazy.force accumulator_share;
  }

let exact_mac =
  lazy
    (mac_of_report
       (Power.analyze (Multipliers.unsigned_array ~bits:8).Multipliers.circuit))

let total p = p.multiplier_energy +. p.accumulator_energy

(* A degenerate mutant (all Buf/Const logic) legitimately reaches
   multiplier_energy = 0 — the accumulator share keeps the MAC total
   positive — but a hand-built or corrupted profile can carry NaN or a
   negative component, and NaN silently poisons every downstream Pareto
   dominance comparison.  Reject those profiles with a typed error at
   the division instead. *)
let check_profile ~what p =
  if
    (not (Float.is_finite p.multiplier_energy))
    || (not (Float.is_finite p.accumulator_energy))
    || p.multiplier_energy < 0.
    || p.accumulator_energy < 0.
  then
    invalid_arg
      (Printf.sprintf
         "Energy.relative_mac_energy: %s profile is not finite and \
          non-negative (multiplier=%h accumulator=%h)"
         what p.multiplier_energy p.accumulator_energy)

let relative_mac_energy p =
  check_profile ~what:"candidate" p;
  let reference = Lazy.force exact_mac in
  check_profile ~what:"reference" reference;
  let denominator = total reference in
  if denominator <= 0. then
    invalid_arg "Energy.relative_mac_energy: exact reference MAC has no energy";
  total p /. denominator

let network_energy p ~macs =
  if macs < 0. then invalid_arg "Energy.network_energy: negative macs";
  relative_mac_energy p *. macs

let savings_percent p = 100. *. (1. -. relative_mac_energy p)
