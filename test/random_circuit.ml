(* Random combinational circuits for the simulator and BDD property
   tests: every builder function, constants and buffers included, over
   2..[max_inputs] inputs. *)

module Circuit = Ax_netlist.Circuit

(* Below 5 inputs a sweep's only word is partial.  The builder emits
   NAND/NOR/XNOR as NOT over AND/OR/XOR. *)
let arbitrary ~max_inputs =
  let open QCheck.Gen in
  let gen =
    int_range 2 max_inputs >>= fun inputs ->
    list_size (int_range 1 60) (triple (int_bound 10) nat nat) >>= fun gates ->
    list_size (int_range 1 8) nat >|= fun outs -> (inputs, gates, outs)
  in
  QCheck.make gen ~print:(fun (inputs, gates, outs) ->
      Printf.sprintf "%d inputs, %d gates, %d outputs" inputs
        (List.length gates) (List.length outs))

let build (inputs, gates, outs) =
  let c = Circuit.create ~name:"random" () in
  let signals = ref [||] in
  let add s = signals := Array.append !signals [| s |] in
  for i = 0 to inputs - 1 do
    add (Circuit.input c (Printf.sprintf "x%d" i))
  done;
  let pick k = !signals.(k mod Array.length !signals) in
  List.iter
    (fun (kind, a, b) ->
      let a = pick a and b = pick b in
      add
        (match kind with
        | 0 -> Circuit.const c (a = b)
        | 1 -> Circuit.buf_ c a
        | 2 -> Circuit.not_ c a
        | 3 -> Circuit.and_ c a b
        | 4 -> Circuit.or_ c a b
        | 5 -> Circuit.xor_ c a b
        | 6 -> Circuit.nand_ c a b
        | 7 -> Circuit.nor_ c a b
        | 8 -> Circuit.xnor_ c a b
        | 9 -> Circuit.mux c ~sel:a b (pick (Circuit.index a + 1))
        | _ -> Circuit.const c (Circuit.index a land 1 = 1)))
    gates;
  List.iteri (fun k o -> Circuit.output c (Printf.sprintf "y%d" k) (pick o)) outs;
  c
