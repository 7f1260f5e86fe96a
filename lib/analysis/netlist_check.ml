module Circuit = Ax_netlist.Circuit
module Gate = Ax_netlist.Gate
module Bdd = Ax_netlist.Bdd
module Multipliers = Ax_netlist.Multipliers
module Lut = Ax_arith.Lut
module D = Diagnostic

let signal_loc c idx =
  let label =
    match Circuit.gate_at c idx with
    | Gate.Input l -> l
    | g -> Gate.name g
    | exception Invalid_argument _ -> ""
  in
  D.Netlist_signal { index = idx; label }

let check_circuit c =
  let diags = ref [] in
  let emit ~rule ?location msg = diags := D.make ~rule ?location msg :: !diags in
  let n = Circuit.node_count c in
  if Circuit.output_count c = 0 then
    emit ~rule:"net/no-outputs"
      (Printf.sprintf "circuit %S registers no primary outputs"
         (Circuit.name c));
  (* fan-in ordering: indices double as evaluation order *)
  Circuit.iter_gates c (fun i g ->
      List.iter
        (fun j ->
          if j < 0 || j >= i then
            emit ~rule:"net/fanin-order" ~location:(signal_loc c i)
              (Printf.sprintf "%s at node %d reads node %d" (Gate.name g) i j))
        (Gate.fanin g));
  (* forward use: an input no gate nor output reads drives nothing *)
  let used = Array.make n false in
  Circuit.iter_gates c (fun _ g ->
      List.iter
        (fun j -> if j >= 0 && j < n then used.(j) <- true)
        (Gate.fanin g));
  List.iter
    (fun (_, s) ->
      let i = Circuit.index s in
      if i >= 0 && i < n then used.(i) <- true)
    (Circuit.outputs c);
  List.iter
    (fun (label, s) ->
      let i = Circuit.index s in
      if i >= 0 && i < n && not used.(i) then
        emit ~rule:"net/unused-input"
          ~location:(D.Netlist_signal { index = i; label })
          "primary input drives no gate and no output")
    (Circuit.inputs c);
  (* backward reach: combinational gates no output depends on *)
  let reached = Array.make n false in
  let rec back i =
    if i >= 0 && i < n && not reached.(i) then begin
      reached.(i) <- true;
      List.iter back (Gate.fanin (Circuit.gate_at c i))
    end
  in
  List.iter (fun (_, s) -> back (Circuit.index s)) (Circuit.outputs c);
  Circuit.iter_gates c (fun i g ->
      if Gate.is_combinational g && not reached.(i) then
        emit ~rule:"net/dead-gate" ~location:(signal_loc c i)
          (Printf.sprintf "%s reaches no primary output" (Gate.name g)));
  List.rev !diags

(* --- LUT certification --- *)

let interface_findings (m : Multipliers.t) =
  let c = m.Multipliers.circuit in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if Circuit.input_count c <> m.Multipliers.width_a + m.Multipliers.width_b
  then
    bad "%d primary inputs for declared widths %d+%d" (Circuit.input_count c)
      m.Multipliers.width_a m.Multipliers.width_b;
  if Circuit.output_count c <> m.Multipliers.product_bits then
    bad "%d primary outputs for a declared %d-bit product"
      (Circuit.output_count c) m.Multipliers.product_bits;
  List.rev_map
    (fun msg ->
      D.make ~rule:"net/width-mismatch"
        ~location:(D.Artefact (Circuit.name c))
        msg)
    !problems

let certify_lut ~lut (m : Multipliers.t) =
  let c = m.Multipliers.circuit in
  if
    m.Multipliers.width_a <> 8 || m.Multipliers.width_b <> 8
    || m.Multipliers.product_bits <> 16
    || Circuit.input_count c <> 16
    || Circuit.output_count c <> 16
  then
    [
      D.make ~rule:"net/width-mismatch"
        ~location:(D.Artefact (Circuit.name c))
        (Printf.sprintf
           "not an 8x8 -> 16-bit multiplier (%dx%d -> %d); cannot certify \
            against a %d-entry LUT"
           m.Multipliers.width_a m.Multipliers.width_b
           m.Multipliers.product_bits Lut.entries);
    ]
  else begin
    let mgr = Bdd.manager () in
    let outs = Bdd.of_circuit mgr c in
    let out_nodes =
      List.map (fun (label, s) -> (label, Circuit.index s)) (Circuit.outputs c)
    in
    (* Variable [v] is the circuit's v-th primary input, which for the
       generators is a_v for v < 8 and b_(v-8) otherwise; a table index
       therefore denotes the operand pair (ca, cb) with ca in its low 8
       bits: leaf = (cb << 8) | ca, while the LUT stitches (ca << 8) | cb.
       The raw entries are read once; the 16 column builds share them. *)
    let raw =
      Array.init Lut.entries (fun leaf ->
          Lut.get_raw lut (Lut.raw_index (leaf land 0xff) (leaf lsr 8)))
    in
    let diags = ref [] in
    for bit = 0 to 15 do
      let label = Printf.sprintf "p_%d" bit in
      match List.assoc_opt label outs with
      | None ->
        diags :=
          D.make ~rule:"net/width-mismatch"
            ~location:(D.Artefact (Circuit.name c))
            (Printf.sprintf "no output labelled %s" label)
          :: !diags
      | Some circuit_bdd ->
        let table_bdd =
          Bdd.of_table mgr ~vars:16 (fun leaf -> (raw.(leaf) lsr bit) land 1 = 1)
        in
        if circuit_bdd <> table_bdd then begin
          let diff = Bdd.xor_ mgr circuit_bdd table_bdd in
          let mismatches = Bdd.satisfy_count mgr ~vars:16 diff in
          let index =
            match List.assoc_opt label out_nodes with Some i -> i | None -> -1
          in
          diags :=
            D.make ~rule:"net/lut-mismatch"
              ~location:(D.Netlist_signal { index; label })
              (Printf.sprintf
                 "product bit %d differs from the LUT on %.0f of %d operand \
                  pairs"
                 bit mismatches Lut.entries)
            :: !diags
        end
    done;
    List.rev !diags
  end

let check_multiplier ?lut (m : Multipliers.t) =
  let base = check_circuit m.Multipliers.circuit @ interface_findings m in
  match lut with None -> base | Some lut -> base @ certify_lut ~lut m
