(* Tests for the certified design-space exploration layer (lib/explore):
   genome round-trips preserve the multiplier function, qcheck mutation
   validity (every mutant structurally sound and strip-dead idempotent),
   the certification rejection path, seeded end-to-end search
   determinism across reruns and pool sizes, and NaN-safe Pareto
   bookkeeping. *)

module Multipliers = Ax_netlist.Multipliers
module Circuit = Ax_netlist.Circuit
module Sim = Ax_netlist.Sim
module Opt = Ax_netlist.Opt
module Genome = Ax_explore.Genome
module Rng = Ax_tensor.Rng
module Pareto = Ax_explore.Pareto
module Search = Ax_explore.Search

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- srng --- *)

(* The search's mutation stream is [Rng.of_state (seed xor golden)].
   This verbatim copy of the splitmix64 step it used before it moved
   onto [Rng] pins it, so seeded fronts cannot drift. *)
let reference_stream seed n =
  let state = ref (Int64.logxor (Int64.of_int seed) 0x9E3779B97F4A7C15L) in
  List.init n (fun _ ->
      state := Int64.add !state 0x9E3779B97F4A7C15L;
      let z = !state in
      let z =
        Int64.mul
          (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul
          (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      Int64.logxor z (Int64.shift_right_logical z 31))

let search_rng seed =
  Rng.of_state (Int64.logxor (Int64.of_int seed) Rng.golden)

let test_srng_deterministic () =
  let stream seed = List.init 32 (fun _ -> Rng.int (search_rng seed) 1000) in
  let stream2 seed =
    let r = search_rng seed in
    List.init 32 (fun _ -> Rng.int r 1000)
  in
  check_bool "same seed, same stream" true (stream2 5 = stream2 5);
  check_bool "different seeds diverge" true (stream2 5 <> stream2 6);
  check_bool "fresh state per create" true (stream 5 = stream 5);
  List.iter
    (fun seed ->
      let r = search_rng seed in
      check_bool
        (Printf.sprintf "seed %d: raw draws match the reference" seed)
        true
        (List.init 8 (fun _ -> Rng.next_int64 r) = reference_stream seed 8);
      let ints = search_rng seed and bools = search_rng seed in
      let reference = reference_stream seed 16 in
      check_bool
        (Printf.sprintf "seed %d: int and bool match the reference" seed)
        true
        (List.for_all
           (fun z ->
             Rng.int ints 1000
             = Int64.to_int
                 (Int64.rem (Int64.shift_right_logical z 1) 1000L)
             && Rng.bool bools = (Int64.logand z 1L = 1L))
           reference))
    [ 0; 7; -3 ];
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (search_rng 0) 0))

(* --- genome round trip --- *)

let round_trip_subjects () =
  [
    ("exact", Multipliers.unsigned_array ~bits:8);
    ("trunc8", Multipliers.truncated ~bits:8 ~cut:8);
    ("bam_h3v8", Multipliers.broken_array ~bits:8 ~hbl:3 ~vbl:8);
  ]

let test_genome_round_trip () =
  List.iter
    (fun (tag, m) ->
      let g = Genome.of_multiplier m in
      check_bool (tag ^ ": extracted genome valid") true (Genome.valid g);
      let m' = Genome.to_multiplier g in
      check_int (tag ^ ": width_a") m.Multipliers.width_a
        m'.Multipliers.width_a;
      check_int (tag ^ ": width_b") m.Multipliers.width_b
        m'.Multipliers.width_b;
      check_int (tag ^ ": product bits") m.Multipliers.product_bits
        m'.Multipliers.product_bits;
      (* Exhaustive: the replayed, dead-stripped circuit computes the
         identical function on all 65536 operand pairs. *)
      let f = Sim.truth_table_2x m.Multipliers.circuit ~width_a:8 ~width_b:8 in
      let f' =
        Sim.truth_table_2x m'.Multipliers.circuit ~width_a:8 ~width_b:8
      in
      let ok = ref true in
      for a = 0 to 255 do
        for b = 0 to 255 do
          if f a b <> f' a b then ok := false
        done
      done;
      check_bool (tag ^ ": function preserved") true !ok)
    (round_trip_subjects ())

(* --- mutation validity (qcheck) --- *)

(* Whatever the seed and mutation count, a mutant must stay structurally
   valid, rebuild into an 8x8 -> 16 multiplier, and be a fixed point of
   a second dead-logic sweep (Opt.strip_dead idempotence on the search's
   actual candidate path). *)
let mutation_validity =
  QCheck.Test.make ~name:"mutants valid, 8x8 interface, strip-dead idempotent"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, extra_ops) ->
      let rng = search_rng seed in
      let g0 = Genome.of_multiplier (Multipliers.truncated ~bits:8 ~cut:6) in
      let g = Genome.mutate ~rng ~operations:(1 + extra_ops) g0 in
      Genome.valid g
      &&
      let m = Genome.to_multiplier g in
      m.Multipliers.width_a = 8
      && m.Multipliers.width_b = 8
      && m.Multipliers.product_bits = 16
      &&
      let c = m.Multipliers.circuit in
      let c' = Opt.strip_dead c in
      Circuit.node_count c' = Circuit.node_count c)

let mutation_leaves_parent_intact =
  QCheck.Test.make ~name:"mutation does not modify the parent genome"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let g0 = Genome.of_multiplier (Multipliers.truncated ~bits:8 ~cut:8) in
      let snapshot = Array.copy g0.Genome.genes in
      let rng = search_rng seed in
      ignore (Genome.mutate ~rng ~operations:3 g0);
      g0.Genome.genes = snapshot)

(* --- certification rejection path --- *)

let test_certification_rejects_wrong_lut () =
  let exact = Multipliers.unsigned_array ~bits:8 in
  let trunc = Multipliers.truncated ~bits:8 ~cut:8 in
  (* The exact netlist against the truncated multiplier's LUT: the BDD
     proof must refute it, and the search must surface the rule name. *)
  (match Search.certify_candidate exact ~lut:(Search.tabulate trunc) with
  | Ok () -> Alcotest.fail "mismatched LUT must not certify"
  | Error reason ->
    check_bool "mismatch rule named" true (contains reason "net/lut-mismatch"));
  check_bool "matching LUT certifies" true
    (Search.certify_candidate exact ~lut:(Search.tabulate exact) = Ok ())

let test_tabulate_guards_interface () =
  Alcotest.check_raises "4x4 rejected"
    (Invalid_argument
       "Search.tabulate: candidate is not an unsigned 8x8 -> 16-bit multiplier")
    (fun () -> ignore (Search.tabulate (Multipliers.unsigned_array ~bits:4)))

(* --- end-to-end seeded search --- *)

let tiny_config =
  {
    Search.default_config with
    Search.seed = 7;
    generations = 1;
    population = 3;
    images = 2;
    model = Search.Lenet;
  }

let test_seeded_search_deterministic () =
  let r = Search.run tiny_config in
  check_bool "front non-empty" true (r.Search.front <> []);
  List.iter
    (fun p -> check_bool ("certified: " ^ p.Pareto.name) true p.Pareto.certified)
    r.Search.front;
  check_bool "every evaluation within budget" true
    (r.Search.evaluated
    <= tiny_config.Search.population * (tiny_config.Search.generations + 1));
  check_bool "counters add up" true
    (r.Search.rejected = List.length r.Search.rejections);
  let json = Search.front_json_string r in
  let csv = Search.front_csv_string r in
  (* Same config, fresh run: byte-identical artefacts. *)
  let r2 = Search.run tiny_config in
  check_string "rerun JSON byte-identical" json (Search.front_json_string r2);
  check_string "rerun CSV byte-identical" csv (Search.front_csv_string r2);
  (* Same config on an explicit 2-domain pool: the fan-out width must
     not leak into the result. *)
  let r3 =
    Ax_pool.Pool.with_pool ~domains:2 (fun pool -> Search.run ~pool tiny_config)
  in
  check_string "2-domain pool JSON byte-identical" json
    (Search.front_json_string r3)

let test_search_validates_config () =
  Alcotest.check_raises "population must be positive"
    (Invalid_argument "Search.run: population must be positive") (fun () ->
      ignore (Search.run { tiny_config with Search.population = 0 }));
  Alcotest.check_raises "unknown model name" (Failure
    "unknown model resnet9 (have: resnet8, lenet)") (fun () ->
      ignore (Search.model_of_string "resnet9"))

(* Pinned fronts: MD5s of the JSON and CSV that [tfapprox explore --seed
   S --generations 1 --population 3 --model lenet --images 2] writes.
   A faster sweep, certifier or scheduler must leave them byte for byte;
   seed 7 is also run on a 2-domain pool, whose JSON must not differ. *)
let pinned_fronts =
  [
    (3, "41c42c6c0e853c8f12166b80cdf96b1d", "58c5f47b1c82d4943e310d3e5f5154fc");
    (7, "de389bb54f9e0f98f429e135312909a9", "3a068191ff36ea71d8946906c1b14f7d");
    (11, "000b614742361cd05e2c95be132e74a8", "5452d94bf98eada4910b05a90babef9b");
  ]

let test_fronts_pinned () =
  let md5 text = Digest.to_hex (Digest.string text) in
  List.iter
    (fun (seed, json_md5, csv_md5) ->
      let r = Search.run { tiny_config with Search.seed } in
      check_string (Printf.sprintf "seed %d JSON" seed) json_md5
        (md5 (Search.front_json_string r));
      check_string (Printf.sprintf "seed %d CSV" seed) csv_md5
        (md5 (Search.front_csv_string r));
      if seed = 7 then
        check_string "seed 7 JSON on 2 domains" json_md5
          (md5
             (Search.front_json_string
                (Ax_pool.Pool.with_pool ~domains:2 (fun pool ->
                     Search.run ~pool { tiny_config with Search.seed })))))
    pinned_fronts

(* --- allocation gate --- *)

(* The sweep and the BDD manager keep their state in flat int arrays, so
   tabulating and certifying a candidate allocate next to nothing on the
   minor heap (the big arrays go straight to the major heap).  64k words
   is ~1% of what the boxed loops and the Hashtbl manager took on exact8;
   a loop that boxes a word per gate or per apply blows it at once. *)
let minor_words_bound = 65_536.

let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_allocation_bounded () =
  let m = Multipliers.unsigned_array ~bits:8 in
  let c = m.Multipliers.circuit in
  let lut = Search.tabulate m in
  ignore (Search.certify_candidate m ~lut);
  List.iter
    (fun (what, words) ->
      check_bool
        (Printf.sprintf "%s: %.0f minor words <= %.0f" what words
           minor_words_bound)
        true
        (words <= minor_words_bound))
    [
      ("Sim.exhaustive exact8 (LUT + one-counts)",
       minor_words (fun () -> Ax_netlist.Sim.exhaustive c));
      ("Search.tabulate exact8", minor_words (fun () -> Search.tabulate m));
      ("Search.certify_candidate exact8",
       minor_words (fun () -> Search.certify_candidate m ~lut));
    ]

(* --- pareto bookkeeping --- *)

let pt ?(name = "p") ?(acc = 0.5) ?(energy = 0.5) () =
  {
    Pareto.name;
    generation = 0;
    accuracy = acc;
    energy;
    area = 1.;
    delay = 1.;
    power = 1.;
    pdp = 1.;
    gates = 1;
    mae = 0.;
    wce = 0;
    certified = true;
  }

let test_pareto_dominance () =
  let strong = pt ~name:"strong" ~acc:0.8 ~energy:0.5 () in
  let weak = pt ~name:"weak" ~acc:0.7 ~energy:0.6 () in
  let cheap = pt ~name:"cheap" ~acc:0.2 ~energy:0.1 () in
  check_bool "better on both dominates" true (Pareto.dominates strong weak);
  check_bool "dominance is not symmetric" false (Pareto.dominates weak strong);
  check_bool "trade-off does not dominate" false
    (Pareto.dominates strong cheap);
  check_bool "equal point does not dominate itself" false
    (Pareto.dominates strong strong);
  Alcotest.(check (list string))
    "front keeps trade-offs, energy-ascending" [ "cheap"; "strong" ]
    (List.map
       (fun p -> p.Pareto.name)
       (Pareto.front [ strong; weak; cheap ]))

let test_pareto_nan_safety () =
  let good = pt ~name:"good" ~acc:0.8 ~energy:0.5 () in
  let nan_acc = pt ~name:"nan_acc" ~acc:Float.nan ~energy:0.0 () in
  let inf_energy = pt ~name:"inf_e" ~acc:1.0 ~energy:Float.infinity () in
  (* A poisoned point must neither eat the archive nor survive into the
     front, whichever side of the comparison it lands on. *)
  check_bool "nan never dominates" false (Pareto.dominates nan_acc good);
  check_bool "nan never blocks" false (Pareto.dominates good nan_acc);
  Alcotest.(check (list string))
    "non-finite points filtered" [ "good" ]
    (List.map
       (fun p -> p.Pareto.name)
       (Pareto.front [ good; nan_acc; inf_energy ]))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ mutation_validity; mutation_leaves_parent_intact ]
  in
  Alcotest.run "ax_explore"
    [
      ( "srng",
        [ Alcotest.test_case "seeded stream" `Quick test_srng_deterministic ] );
      ( "genome",
        [
          Alcotest.test_case "round trip preserves function" `Slow
            test_genome_round_trip;
        ] );
      ("mutation", qsuite);
      ( "certification",
        [
          Alcotest.test_case "wrong LUT rejected" `Slow
            test_certification_rejects_wrong_lut;
          Alcotest.test_case "tabulate interface guard" `Quick
            test_tabulate_guards_interface;
        ] );
      ( "search",
        [
          Alcotest.test_case "seeded determinism across pools" `Slow
            test_seeded_search_deterministic;
          Alcotest.test_case "config validation" `Quick
            test_search_validates_config;
          Alcotest.test_case "fronts pinned" `Slow test_fronts_pinned;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "sweep and certification bounded" `Quick
            test_allocation_bounded;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominance and front" `Quick test_pareto_dominance;
          Alcotest.test_case "nan safety" `Quick test_pareto_nan_safety;
        ] );
    ]
