(* Tests for the behavioural multiplier library: signedness codec, the
   multiplier models themselves (against brute-force references), the
   128 kB LUT, error metrics and the registry catalogue. *)

module S = Ax_arith.Signedness
module Exact = Ax_arith.Exact
module Truncation = Ax_arith.Truncation
module Drum = Ax_arith.Drum
module Mitchell = Ax_arith.Mitchell
module Kulkarni = Ax_arith.Kulkarni
module Faults = Ax_arith.Faults
module Lut = Ax_arith.Lut
module Metrics = Ax_arith.Error_metrics
module Registry = Ax_arith.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- signedness --- *)

let test_code_roundtrip () =
  List.iter
    (fun s ->
      for v = S.min_value s to S.max_value s do
        check_int
          (Printf.sprintf "%s roundtrip %d" (S.to_string s) v)
          v
          (S.value_of_code s (S.code_of_value s v))
      done)
    [ S.Signed; S.Unsigned ]

let test_signed_codes_are_twos_complement () =
  check_int "-1 encodes as 0xff" 0xff (S.code_of_value S.Signed (-1));
  check_int "-128 encodes as 0x80" 0x80 (S.code_of_value S.Signed (-128));
  check_int "127 encodes as 0x7f" 0x7f (S.code_of_value S.Signed 127)

let test_out_of_range_rejected () =
  Alcotest.check_raises "256 unsigned"
    (Invalid_argument "Signedness.code_of_value: 256 out of unsigned range")
    (fun () -> ignore (S.code_of_value S.Unsigned 256));
  Alcotest.check_raises "-1 unsigned"
    (Invalid_argument "Signedness.code_of_value: -1 out of unsigned range")
    (fun () -> ignore (S.code_of_value S.Unsigned (-1)))

let test_clamp () =
  check_int "clamp 400 unsigned" 255 (S.clamp S.Unsigned 400);
  check_int "clamp -7 unsigned" 0 (S.clamp S.Unsigned (-7));
  check_int "clamp 200 signed" 127 (S.clamp S.Signed 200);
  check_int "clamp -200 signed" (-128) (S.clamp S.Signed (-200));
  check_int "clamp in-range" 42 (S.clamp S.Signed 42)

(* --- exact & sign-magnitude adaptor --- *)

let test_signed_of_unsigned_exact () =
  for a = -128 to 127 do
    for b = -128 to 127 do
      check_int
        (Printf.sprintf "sm %d*%d" a b)
        (a * b)
        (Exact.signed_of_unsigned (fun x y -> x * y) a b)
    done
  done

(* --- truncation matches gate level --- *)

let test_truncation_matches_netlist () =
  let netlist = Ax_netlist.Multipliers.truncated ~bits:8 ~cut:7 in
  let gate_fn = Ax_netlist.Multipliers.behavioural netlist in
  let model = Truncation.truncated ~bits:8 ~cut:7 in
  for a = 0 to 255 do
    for b = 0 to 255 do
      if gate_fn a b <> model a b then
        Alcotest.failf "trunc7 mismatch at %d*%d: netlist=%d model=%d" a b
          (gate_fn a b) (model a b)
    done
  done

let test_bam_matches_netlist () =
  let netlist = Ax_netlist.Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6 in
  let gate_fn = Ax_netlist.Multipliers.behavioural netlist in
  let model = Truncation.broken_array ~bits:8 ~hbl:2 ~vbl:6 in
  for a = 0 to 255 do
    for b = 0 to 255 do
      if gate_fn a b <> model a b then
        Alcotest.failf "bam mismatch at %d*%d: netlist=%d model=%d" a b
          (gate_fn a b) (model a b)
    done
  done

(* --- DRUM --- *)

let test_drum_small_operands_exact () =
  (* Operands below 2^k are not approximated at all. *)
  for a = 0 to 7 do
    for b = 0 to 7 do
      check_int "drum3 small" (a * b) (Drum.multiply ~k:3 a b)
    done
  done

let test_drum_operand_window () =
  (* 0b11011010 with k=3 keeps bits 7..5 and sets bit 5: 0b11100000. *)
  check_int "window+unbias" 0b11100000
    (Drum.approximate_operand ~k:3 0b11011010);
  (* Already-short operands unchanged. *)
  check_int "short unchanged" 5 (Drum.approximate_operand ~k:3 5)

let test_drum_relative_error_bound () =
  (* DRUM(k) has relative operand error bounded by 2^-(k-1); product
     relative error is therefore below ~2*2^-(k-1) + small. *)
  let k = 4 in
  let bound = 2.2 *. (2. ** float_of_int (-(k - 1))) in
  for a = 1 to 255 do
    for b = 1 to 255 do
      let e = abs (Drum.multiply ~k a b - (a * b)) in
      let rel = float_of_int e /. float_of_int (a * b) in
      if rel > bound then
        Alcotest.failf "drum%d rel error %.3f > %.3f at %d*%d" k rel bound a b
    done
  done

(* --- Mitchell --- *)

let test_mitchell_exact_on_powers_of_two () =
  List.iter
    (fun (a, b) ->
      check_int (Printf.sprintf "mitchell %d*%d" a b) (a * b)
        (Mitchell.multiply a b))
    [ (1, 1); (2, 4); (16, 8); (128, 2); (64, 64); (0, 200); (200, 0) ]

let test_mitchell_always_underestimates () =
  for a = 1 to 255 do
    for b = 1 to 255 do
      let p = Mitchell.multiply a b in
      if p > a * b then
        Alcotest.failf "mitchell overestimates %d*%d: %d" a b p
    done
  done

let test_mitchell_worst_case_bound () =
  (* Classic result: Mitchell's error is at most ~11.1% of the product. *)
  for a = 1 to 255 do
    for b = 1 to 255 do
      let e = (a * b) - Mitchell.multiply a b in
      let rel = float_of_int e /. float_of_int (a * b) in
      if rel > 0.112 then
        Alcotest.failf "mitchell rel error %.4f at %d*%d" rel a b
    done
  done

(* --- Kulkarni --- *)

let test_kulkarni_2x2_table () =
  for a = 0 to 3 do
    for b = 0 to 3 do
      let want = if a = 3 && b = 3 then 7 else a * b in
      check_int (Printf.sprintf "k2x2 %d*%d" a b) want (Kulkarni.mul2x2 a b)
    done
  done

let test_kulkarni_errs_only_with_threes () =
  (* The 8x8 composition is exact unless some 2x2 sub-product hits 3*3. *)
  let has_three_pair a b =
    let rec go a b =
      if a < 4 && b < 4 then a = 3 && b = 3
      else
        let sub bits x = (x land ((1 lsl bits) - 1), x lsr bits) in
        let half = if a < 16 && b < 16 then 2 else if a < 256 && b < 256 then 4 else 8 in
        let al, ah = sub half a and bl, bh = sub half b in
        go al bl || go al bh || go ah bl || go ah bh
    in
    go a b
  in
  for a = 0 to 255 do
    for b = 0 to 255 do
      let approx = Kulkarni.multiply ~bits:8 a b in
      if approx = a * b && has_three_pair a b then ()
        (* fine: an erring block may still cancel nothing — exactness with
           a 3x3 pair cannot happen, assert below *)
      else if approx <> a * b && not (has_three_pair a b) then
        Alcotest.failf "kulkarni errs without a 3*3 pair at %d*%d" a b
    done
  done;
  (* And it always under-estimates (each faulty block loses 2). *)
  for a = 0 to 255 do
    for b = 0 to 255 do
      if Kulkarni.multiply ~bits:8 a b > a * b then
        Alcotest.failf "kulkarni overestimates at %d*%d" a b
    done
  done

(* --- faults --- *)

let test_stuck_at_and_flip () =
  let f = Faults.stuck_at ~bit:0 ~value:true Exact.mul8u in
  check_int "stuck-at-1 forces odd" 13 (f 3 4);
  let g = Faults.bit_flip ~bit:4 Exact.mul8u in
  check_int "flip bit 4" (12 lxor 16) (g 3 4)

let test_random_flip_deterministic () =
  let f = Faults.random_flip ~probability:0.05 ~seed:7 ~bits:16 Exact.mul8u in
  check_int "same inputs, same faults" (f 123 231) (f 123 231);
  let g = Faults.random_flip ~probability:0.05 ~seed:8 ~bits:16 Exact.mul8u in
  check_bool "different seed differs somewhere" true
    (List.exists
       (fun (a, b) -> f a b <> g a b)
       [ (1, 1); (50, 99); (123, 231); (255, 255); (17, 89); (200, 3) ])

let test_random_flip_probability_zero_is_exact () =
  let f = Faults.random_flip ~probability:0. ~seed:1 ~bits:16 Exact.mul8u in
  for a = 0 to 255 do
    check_int "p=0 exact" (a * a) (f a a)
  done

(* --- LUT --- *)

let test_lut_is_128kb () =
  check_int "entries" 65536 Lut.entries;
  check_int "payload bytes" 131072 Lut.size_bytes

let test_lut_reproduces_function () =
  let lut = Lut.exact S.Unsigned in
  for a = 0 to 255 do
    for b = 0 to 255 do
      check_int "lut(a,b)=a*b" (a * b) (Lut.lookup_value lut a b)
    done
  done

let test_lut_signed_reproduces_function () =
  let lut = Lut.exact S.Signed in
  for a = -128 to 127 do
    for b = -128 to 127 do
      if Lut.lookup_value lut a b <> a * b then
        Alcotest.failf "signed lut %d*%d: %d" a b (Lut.lookup_value lut a b)
    done
  done

let test_lut_code_and_value_paths_agree () =
  let lut = Lut.exact S.Signed in
  for a = -128 to 127 do
    let ca = S.code_of_value S.Signed a in
    check_int "code path" (Lut.lookup_value lut a (-3))
      (Lut.lookup_code lut ca (S.code_of_value S.Signed (-3)))
  done

let test_lut_saturation () =
  (* A function overflowing 16 bits must saturate, not wrap. *)
  let lut = Lut.make ~signedness:S.Unsigned (fun _ _ -> 1_000_000) in
  check_int "unsigned saturates to 65535" 65535 (Lut.lookup_value lut 1 1);
  let lut = Lut.make ~signedness:S.Signed (fun _ _ -> -1_000_000) in
  check_int "signed saturates to -32768" (-32768) (Lut.lookup_value lut 1 1)

let test_lut_save_load_roundtrip () =
  let entry = Registry.find_exn "mul8u_trunc8" in
  let lut = Registry.lut entry in
  let path = Filename.temp_file "axlut" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lut.save path lut;
      let loaded = Lut.load path in
      check_bool "roundtrip equal" true (Lut.equal lut loaded);
      (* File is header + 128 kB payload + CRC-32 trailer. *)
      let ic = open_in_bin path in
      let size = in_channel_length ic in
      close_in ic;
      check_int "file size" Lut.serialized_bytes size;
      check_int "file size constant" (6 + 1 + 131072 + 4) size)

let test_lut_load_rejects_garbage () =
  let path = Filename.temp_file "axlut" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTALUT-and-some-padding";
      close_out oc;
      (match Lut.load_result path with
      | Error (Ax_arith.Load_error.Bad_magic _) -> ()
      | Error e ->
        Alcotest.failf "expected Bad_magic, got %s"
          (Ax_arith.Load_error.to_string e)
      | Ok _ -> Alcotest.fail "garbage accepted");
      match Lut.load path with
      | exception Ax_arith.Load_error.Error (Ax_arith.Load_error.Bad_magic _)
        -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "garbage accepted by raising API")

let test_lut_load_detects_bit_flip () =
  let lut = Registry.lut (Registry.find_exn "mul8u_trunc8") in
  let bytes = Lut.to_bytes lut in
  (* Flip one payload bit: the CRC must catch it. *)
  let pos = 7 + 1234 in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x10));
  match Lut.of_bytes_result bytes ~pos:0 with
  | Error (Ax_arith.Load_error.Bad_checksum _) -> ()
  | Error e ->
    Alcotest.failf "expected Bad_checksum, got %s"
      (Ax_arith.Load_error.to_string e)
  | Ok _ -> Alcotest.fail "corrupted table accepted"

(* --- error metrics --- *)

let test_metrics_exact_multiplier () =
  let m = Metrics.compute S.Unsigned Exact.mul8u in
  check_bool "exact is exact" true (Metrics.is_exact m);
  Alcotest.(check (float 1e-12)) "mae 0" 0. m.Metrics.mae;
  Alcotest.(check (float 1e-12)) "ep 0" 0. m.Metrics.error_probability

let test_metrics_truncation_underestimates () =
  let m = Metrics.compute S.Unsigned (Truncation.truncated ~bits:8 ~cut:8) in
  check_bool "negative bias" true (m.Metrics.bias < 0.);
  check_bool "nonzero mae" true (m.Metrics.mae > 0.);
  check_bool "wce positive" true (m.Metrics.wce > 0);
  check_bool "mae <= wce" true (m.Metrics.mae <= float_of_int m.Metrics.wce)

let test_metrics_monotone_in_cut () =
  let mae cut =
    (Metrics.compute S.Unsigned (Truncation.truncated ~bits:8 ~cut)).Metrics.mae
  in
  check_bool "mae grows with cut" true (mae 4 < mae 6 && mae 6 < mae 8)

(* --- registry --- *)

let test_registry_has_core_entries () =
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "has %s" n) true
        (Option.is_some (Registry.find n)))
    [
      "mul8u_exact"; "mul8s_exact"; "mul8u_trunc8"; "mul8u_drum4";
      "mul8u_mitchell"; "mul8u_kulkarni"; "mul8u_nl_exact"; "mul8s_nl_exact";
    ]

let test_registry_names_unique () =
  let names = Registry.names () in
  let sorted = List.sort_uniq compare names in
  check_int "no duplicate names" (List.length names) (List.length sorted)

let test_registry_find_exn_message () =
  match Registry.find_exn "no_such_multiplier" with
  | exception Failure msg ->
    check_bool "message mentions the name" true
      (String.length msg > 0
      && String.sub msg 0 17 = "Registry.find_exn")
  | _ -> Alcotest.fail "expected Failure"

let test_registry_netlist_matches_behavioural () =
  let nl = Registry.find_exn "mul8u_nl_exact" in
  for a = 0 to 255 do
    let b = (a * 131 + 7) land 255 in
    check_int "netlist exact = a*b" (a * b) (nl.Registry.multiply a b)
  done

let test_registry_signed_netlist () =
  let nl = Registry.find_exn "mul8s_nl_exact" in
  for a = -128 to 127 do
    let b = ((a * 37) mod 128 + 128) mod 128 - 64 in
    check_int "BW netlist signed" (a * b) (nl.Registry.multiply a b)
  done

let test_registry_lut_cache () =
  let e = Registry.find_exn "mul8u_trunc6" in
  let l1 = Registry.lut e and l2 = Registry.lut e in
  check_bool "same physical table" true (l1 == l2)

let test_register_user_entry () =
  let entry =
    {
      Registry.name = "mul8u_test_registered";
      description = "unit-test entry";
      signedness = S.Unsigned;
      provenance = Registry.Behavioural;
      multiply = (fun a b -> a * b);
      netlist = None;
    }
  in
  Registry.register entry;
  check_bool "findable after register" true
    (Option.is_some (Registry.find "mul8u_test_registered"));
  check_int "usable via lut" 42
    (Lut.lookup_value (Registry.lut (Registry.find_exn "mul8u_test_registered")) 6 7);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Registry.register: duplicate name mul8u_test_registered")
    (fun () -> Registry.register entry)

let test_exact_for () =
  check_bool "unsigned" true
    ((Registry.exact_for S.Unsigned).Registry.name = "mul8u_exact");
  check_bool "signed" true
    ((Registry.exact_for S.Signed).Registry.name = "mul8s_exact")

(* --- qcheck properties --- *)

let signed_pair =
  QCheck.(pair (int_range (-128) 127) (int_range (-128) 127))

let unsigned_pair = QCheck.(pair (int_bound 255) (int_bound 255))

let prop_all_unsigned_entries_in_product_range =
  QCheck.Test.make ~name:"every unsigned entry stays in [0, 65535+eps]"
    ~count:500 unsigned_pair (fun (a, b) ->
      List.for_all
        (fun e ->
          match e.Registry.signedness with
          | S.Unsigned ->
            let lut = Registry.lut e in
            let p = Lut.lookup_value lut a b in
            p >= 0 && p <= 65535
          | S.Signed -> true)
        (Registry.all ()))

let prop_signed_entries_respect_sign_symmetry =
  QCheck.Test.make
    ~name:"sign-magnitude entries are odd in each argument" ~count:500
    signed_pair (fun (a, b) ->
      let e = Registry.find_exn "mul8s_drum4" in
      if a = -128 || b = -128 then true
      else e.Registry.multiply (-a) b = -e.Registry.multiply a b)

let prop_lut_agrees_with_function =
  QCheck.Test.make ~name:"LUT lookup equals direct evaluation" ~count:500
    unsigned_pair (fun (a, b) ->
      let e = Registry.find_exn "mul8u_drum3" in
      Lut.lookup_value (Registry.lut e) a b = e.Registry.multiply a b)

(* --- closed-form behavioural tables --- *)

(* Test-local verbatim copies of the Mitchell, DRUM and truncation models
   as they were before leading_one_position became a binary search and
   Truncation.pruned a precomputed row-mask product.  They are the
   oracle for every behavioural registry entry's LUT. *)
module Before = struct
  let fraction_bits = 16
  let fraction_mask = (1 lsl fraction_bits) - 1

  let leading_one_position x =
    let rec go pos =
      if pos < 0 then -1 else if (x lsr pos) land 1 = 1 then pos else go (pos - 1)
    in
    go 62

  let log2_fixed x =
    if x <= 0 then invalid_arg "Mitchell.log2_fixed: non-positive argument";
    let l = leading_one_position x in
    let mantissa = x - (1 lsl l) in
    (l lsl fraction_bits) + ((mantissa lsl fraction_bits) / (1 lsl l))

  let mitchell a b =
    if a < 0 || b < 0 then invalid_arg "Mitchell.multiply: negative operand";
    if a = 0 || b = 0 then 0
    else begin
      let s = log2_fixed a + log2_fixed b in
      let integer = s lsr fraction_bits in
      let fraction = s land fraction_mask in
      (* antilog: 2^integer * (1 + fraction) *)
      (((1 lsl fraction_bits) + fraction) lsl integer) lsr fraction_bits
    end

  let drum_leading_one_position x =
    (* Position of the most significant set bit; -1 for zero. *)
    let rec go pos = if pos < 0 then -1 else if (x lsr pos) land 1 = 1 then pos else go (pos - 1) in
    go 62

  let approximate_operand ~k x =
    if k < 2 then invalid_arg "Drum.approximate_operand: k must be >= 2";
    if x < 0 then invalid_arg "Drum.approximate_operand: negative operand";
    let l = drum_leading_one_position x in
    if l < k then x
    else begin
      let shift = l - k + 1 in
      let window = (x lsr shift) lor 1 in
      window lsl shift
    end

  let drum ~k a b =
    let a' = approximate_operand ~k a and b' = approximate_operand ~k b in
    a' * b'

  let pruned ~bits ~keep a b =
    let acc = ref 0 in
    for i = 0 to bits - 1 do
      if (a lsr i) land 1 = 1 then
        for j = 0 to bits - 1 do
          if (b lsr j) land 1 = 1 && keep i j then
            acc := !acc + (1 lsl (i + j))
        done
    done;
    !acc land ((1 lsl (2 * bits)) - 1)

  let truncated ~bits ~cut a b = pruned ~bits ~keep:(fun i j -> i + j >= cut) a b

  let broken_array ~bits ~hbl ~vbl a b =
    pruned ~bits ~keep:(fun i j -> i + j >= vbl && j >= hbl) a b
end

let behavioural_references =
  let signed = Exact.signed_of_unsigned in
  [
    ("mul8u_exact", Exact.mul8u);
    ("mul8s_exact", Exact.mul8s);
    ("mul8u_trunc4", Before.truncated ~bits:8 ~cut:4);
    ("mul8u_trunc6", Before.truncated ~bits:8 ~cut:6);
    ("mul8u_trunc8", Before.truncated ~bits:8 ~cut:8);
    ("mul8u_trunc10", Before.truncated ~bits:8 ~cut:10);
    ("mul8u_bam_h2_v6", Before.broken_array ~bits:8 ~hbl:2 ~vbl:6);
    ("mul8u_bam_h3_v8", Before.broken_array ~bits:8 ~hbl:3 ~vbl:8);
    ("mul8u_drum3", Before.drum ~k:3);
    ("mul8u_drum4", Before.drum ~k:4);
    ("mul8u_drum6", Before.drum ~k:6);
    ("mul8s_drum4", signed (Before.drum ~k:4));
    ("mul8s_drum6", signed (Before.drum ~k:6));
    ("mul8u_mitchell", Before.mitchell);
    ("mul8s_mitchell", signed Before.mitchell);
    ("mul8u_kulkarni", Kulkarni.multiply ~bits:8);
    ("mul8s_trunc6", signed (Before.truncated ~bits:8 ~cut:6));
    ( "mul8u_flip14_1e-3",
      Faults.random_flip ~probability:0.001 ~seed:42 ~bits:14 Exact.mul8u );
  ]

let test_behavioural_tables_unchanged () =
  let behavioural =
    List.filter
      (fun e -> e.Registry.provenance = Registry.Behavioural)
      (Registry.all ())
  in
  check_int "every behavioural entry has a reference"
    (List.length behavioural_references) (List.length behavioural);
  List.iter
    (fun e ->
      match List.assoc_opt e.Registry.name behavioural_references with
      | None -> Alcotest.failf "%s: no reference model" e.Registry.name
      | Some reference ->
        let signedness = e.Registry.signedness in
        check_bool (e.Registry.name ^ ": all 65536 entries") true
          (Lut.equal
             (Lut.make ~signedness e.Registry.multiply)
             (Lut.make ~signedness reference)))
    behavioural

let prop_leading_one_position =
  QCheck.Test.make ~name:"leading_one_position = bit scan" ~count:2000
    QCheck.(pair int (int_bound 62))
    (fun (x, shift) ->
      let x = (x land max_int) lsr shift in
      Mitchell.leading_one_position x = Before.leading_one_position x
      && Mitchell.leading_one_position 0 = -1)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_all_unsigned_entries_in_product_range;
        prop_signed_entries_respect_sign_symmetry;
        prop_lut_agrees_with_function;
        prop_leading_one_position;
      ]
  in
  Alcotest.run "ax_arith"
    [
      ( "signedness",
        [
          Alcotest.test_case "code roundtrip" `Quick test_code_roundtrip;
          Alcotest.test_case "two's complement codes" `Quick
            test_signed_codes_are_twos_complement;
          Alcotest.test_case "out of range rejected" `Quick
            test_out_of_range_rejected;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
      ( "exact",
        [
          Alcotest.test_case "sign-magnitude adaptor" `Slow
            test_signed_of_unsigned_exact;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "matches netlist (trunc)" `Slow
            test_truncation_matches_netlist;
          Alcotest.test_case "matches netlist (bam)" `Slow
            test_bam_matches_netlist;
        ] );
      ( "drum",
        [
          Alcotest.test_case "small operands exact" `Quick
            test_drum_small_operands_exact;
          Alcotest.test_case "operand window" `Quick test_drum_operand_window;
          Alcotest.test_case "relative error bound" `Slow
            test_drum_relative_error_bound;
        ] );
      ( "mitchell",
        [
          Alcotest.test_case "exact on powers of two" `Quick
            test_mitchell_exact_on_powers_of_two;
          Alcotest.test_case "always underestimates" `Slow
            test_mitchell_always_underestimates;
          Alcotest.test_case "worst-case bound" `Slow
            test_mitchell_worst_case_bound;
        ] );
      ( "kulkarni",
        [
          Alcotest.test_case "2x2 table" `Quick test_kulkarni_2x2_table;
          Alcotest.test_case "errs only with 3*3 blocks" `Slow
            test_kulkarni_errs_only_with_threes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "stuck-at and flip" `Quick test_stuck_at_and_flip;
          Alcotest.test_case "random flip deterministic" `Quick
            test_random_flip_deterministic;
          Alcotest.test_case "p=0 exact" `Quick
            test_random_flip_probability_zero_is_exact;
        ] );
      ( "lut",
        [
          Alcotest.test_case "is 128 kB" `Quick test_lut_is_128kb;
          Alcotest.test_case "reproduces unsigned function" `Slow
            test_lut_reproduces_function;
          Alcotest.test_case "reproduces signed function" `Slow
            test_lut_signed_reproduces_function;
          Alcotest.test_case "code/value paths agree" `Quick
            test_lut_code_and_value_paths_agree;
          Alcotest.test_case "saturation" `Quick test_lut_saturation;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_lut_save_load_roundtrip;
          Alcotest.test_case "load rejects garbage" `Quick
            test_lut_load_rejects_garbage;
          Alcotest.test_case "load detects bit flip" `Quick
            test_lut_load_detects_bit_flip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "exact multiplier" `Quick
            test_metrics_exact_multiplier;
          Alcotest.test_case "truncation underestimates" `Quick
            test_metrics_truncation_underestimates;
          Alcotest.test_case "mae monotone in cut" `Quick
            test_metrics_monotone_in_cut;
        ] );
      ( "tables",
        [
          Alcotest.test_case "unchanged by the closed forms" `Slow
            test_behavioural_tables_unchanged;
        ] );
      ( "registry",
        [
          Alcotest.test_case "core entries present" `Quick
            test_registry_has_core_entries;
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "find_exn message" `Quick
            test_registry_find_exn_message;
          Alcotest.test_case "netlist matches behavioural" `Slow
            test_registry_netlist_matches_behavioural;
          Alcotest.test_case "signed netlist" `Slow
            test_registry_signed_netlist;
          Alcotest.test_case "lut cache" `Quick test_registry_lut_cache;
          Alcotest.test_case "register user entry" `Quick
            test_register_user_entry;
          Alcotest.test_case "exact_for" `Quick test_exact_for;
        ] );
      ("properties", qsuite);
    ]
