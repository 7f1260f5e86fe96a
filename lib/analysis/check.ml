module D = Diagnostic

let graph ?input g =
  let structural = Graph_check.check ?input g in
  let quant, layers = Quant_check.check g in
  (structural @ quant, layers)

let multiplier = Netlist_check.check_multiplier

let registry_entry (e : Ax_arith.Registry.entry) =
  let lut = Ax_arith.Registry.lut e in
  let table =
    Quant_check.check_lut ~location:(D.Artefact e.Ax_arith.Registry.name) lut
  in
  match e.Ax_arith.Registry.netlist with
  | None -> table
  | Some make -> table @ Netlist_check.check_multiplier ~lut (make ())

let assert_runnable ?input g =
  match D.errors (fst (graph ?input g)) with
  | [] -> ()
  | errors -> raise (D.Rejected errors)
