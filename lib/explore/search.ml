module Circuit = Ax_netlist.Circuit
module Gate = Ax_netlist.Gate
module Sim = Ax_netlist.Sim
module Power = Ax_netlist.Power
module Multipliers = Ax_netlist.Multipliers
module Lut = Ax_arith.Lut
module Signedness = Ax_arith.Signedness
module Error_metrics = Ax_arith.Error_metrics
module Netlist_check = Ax_analysis.Netlist_check
module Diagnostic = Ax_analysis.Diagnostic
module Energy = Ax_gpusim.Energy
module Pool = Ax_pool.Pool
module Emulator = Tfapprox.Emulator

type model = Resnet8 | Lenet

let model_name = function Resnet8 -> "resnet8" | Lenet -> "lenet"

let model_of_string = function
  | "resnet8" -> Resnet8
  | "lenet" -> Lenet
  | other ->
    failwith
      (Printf.sprintf "unknown model %s (have: resnet8, lenet)" other)

type config = {
  seed : int;
  generations : int;
  population : int;
  budget : int;
  images : int;
  model : model;
  mutations : int;
  max_domains : int option;
}

let default_config =
  {
    seed = 1;
    generations = 4;
    population = 8;
    budget = 0;
    images = 32;
    model = Resnet8;
    mutations = 2;
    max_domains = None;
  }

type verdict =
  | Scored of Pareto.point
  | Rejected of { name : string; reason : string }

type result = {
  config : config;
  front : Pareto.point list;
  evaluated : int;
  rejected : int;
  cache_hits : int;
  rejections : (string * string) list;
  wall_seconds : float;
}

(* One exhaustive sweep gives the candidate's LUT and, from the same
   pass, the per-node signal probabilities its power report needs. *)
let sweep (m : Multipliers.t) =
  if
    m.Multipliers.width_a <> 8 || m.Multipliers.width_b <> 8
    || m.Multipliers.product_bits <> 16 || m.Multipliers.signed
  then
    invalid_arg
      "Search.tabulate: candidate is not an unsigned 8x8 -> 16-bit multiplier";
  let s = Sim.exhaustive m.Multipliers.circuit in
  let table = s.Sim.table in
  let lut =
    Lut.make ~signedness:Signedness.Unsigned (fun a b ->
        table.((b lsl 8) lor a))
  in
  (lut, Power.probabilities_of_sweep s)

let tabulate m = fst (sweep m)

let certify_candidate m ~lut =
  let findings = Netlist_check.check_multiplier ~lut m in
  match Diagnostic.errors findings with
  | [] -> Ok ()
  | d :: _ -> Error d.Diagnostic.rule

(* Canonical structural identity of a candidate after strip_dead: the
   dedup key compares both function (LUT bytes) and structure, because
   two structurally different circuits computing the same function have
   different area/energy and must both be scored. *)
let circuit_dump c =
  let buf = Buffer.create 4096 in
  Circuit.iter_gates c (fun i g ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ':';
      (match g with
      | Gate.Input label ->
        Buffer.add_string buf "in:";
        Buffer.add_string buf label
      | Gate.Const b -> Buffer.add_string buf (if b then "c1" else "c0")
      | g ->
        Buffer.add_string buf (Gate.name g);
        List.iter
          (fun j ->
            Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int j))
          (Gate.fanin g));
      Buffer.add_char buf ';');
  List.iter
    (fun (label, s) ->
      Buffer.add_string buf label;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int (Circuit.index s));
      Buffer.add_char buf ';')
    (Circuit.outputs c);
  Buffer.contents buf

type job = {
  j_name : string;
  j_generation : int;
  j_genome : Genome.t;
  j_mult : Multipliers.t;
  j_lut : Lut.t;
  j_lut_digest : string;
  j_probabilities : float array;
  j_cached : (float * Error_metrics.t) option;
}

(* Runs on a pool worker: certification, cost model, and (unless the
   LUT was scored in an earlier generation) an end-to-end accuracy run.
   Everything here is pure per job — the shared lazies (exact MAC
   reference, accumulator share) are forced on the coordinator before
   the fan-out. *)
let evaluate ~base_graph ~dataset job =
  match certify_candidate job.j_mult ~lut:job.j_lut with
  | Error rule -> (Rejected { name = job.j_name; reason = rule }, None)
  | Ok () -> (
    let report =
      Power.analyze ~probabilities:job.j_probabilities
        job.j_mult.Multipliers.circuit
    in
    match Energy.relative_mac_energy (Energy.mac_of_report report) with
    | exception Invalid_argument msg ->
      (Rejected { name = job.j_name; reason = msg }, None)
    | energy ->
      let accuracy, err =
        match job.j_cached with
        | Some cached -> cached
        | None ->
          let graph = Emulator.approximate_model ~lut:job.j_lut base_graph in
          let accuracy =
            Emulator.accuracy ~verify:false graph ~backend:Emulator.Cpu_gemm
              dataset
          in
          (accuracy, Error_metrics.compute_lut job.j_lut)
      in
      let point =
        {
          Pareto.name = job.j_name;
          generation = job.j_generation;
          accuracy;
          energy;
          area = report.Power.area;
          delay = report.Power.delay;
          power = report.Power.power;
          pdp = report.Power.pdp;
          gates = report.Power.gates;
          mae = err.Error_metrics.mae;
          wce = err.Error_metrics.wce;
          certified = true;
        }
      in
      if
        Pareto.finite point
        && Float.is_finite point.Pareto.pdp
        && Float.is_finite point.Pareto.area
      then (Scored point, Some (accuracy, err))
      else
        ( Rejected { name = job.j_name; reason = "non-finite score" },
          None ))

let seed_population () =
  [
    ("exact8", Multipliers.unsigned_array ~bits:8);
    ("trunc4", Multipliers.truncated ~bits:8 ~cut:4);
    ("trunc6", Multipliers.truncated ~bits:8 ~cut:6);
    ("trunc8", Multipliers.truncated ~bits:8 ~cut:8);
    ("trunc10", Multipliers.truncated ~bits:8 ~cut:10);
    ("bam_h2v6", Multipliers.broken_array ~bits:8 ~hbl:2 ~vbl:6);
    ("bam_h3v8", Multipliers.broken_array ~bits:8 ~hbl:3 ~vbl:8);
    ("bam_h4v10", Multipliers.broken_array ~bits:8 ~hbl:4 ~vbl:10);
  ]
  |> List.map (fun (name, m) -> (name, Genome.of_multiplier m))

let run ?pool config =
  if config.population <= 0 then
    invalid_arg "Search.run: population must be positive";
  if config.generations < 0 then
    invalid_arg "Search.run: generations must be non-negative";
  if config.images <= 0 then invalid_arg "Search.run: images must be positive";
  if config.mutations <= 0 then
    invalid_arg "Search.run: mutations must be positive";
  Option.iter (Pool.validate_domains ~what:"Search.run") config.max_domains;
  let t0 = Unix.gettimeofday () in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  (* Force the process-wide lazies before fanning out: OCaml lazy
     values must not be forced concurrently from several domains, so
     nothing [sweep_job] or [evaluate] reaches may hold an unforced
     shared lazy ([Checksum]'s CRC table, which [Lut.to_bytes] reads on
     the workers, is built eagerly for this reason). *)
  ignore (Energy.relative_mac_energy (Lazy.force Energy.exact_mac));
  let base_graph, dataset =
    match config.model with
    | Resnet8 ->
      ( Ax_models.Resnet.build ~depth:8 (),
        Ax_data.Cifar.generate ~n:config.images () )
    | Lenet ->
      (Ax_models.Lenet.build (), Ax_data.Mnist.generate ~n:config.images ())
  in
  let budget =
    if config.budget <= 0 then config.population * (config.generations + 1)
    else config.budget
  in
  let rng = Srng.create config.seed in
  let seen = Hashtbl.create 128 in
  let accuracy_memo = Hashtbl.create 128 in
  let evaluated = ref 0 in
  let rejected = ref 0 in
  let cache_hits = ref 0 in
  let rejections = ref [] in
  let archive = ref [] in
  (* (point, genome), oldest first *)
  let eval_batch ~generation candidates =
    let jobs = ref [] in
    let planned = ref 0 in
    (* Candidates are built and swept on the pool, in candidate order,
       and deduplicated here.  A chunk is as long as the budget's room,
       so every candidate in it is looked at, as one at a time would be;
       duplicates leave room over for the next chunk. *)
    let sweep_job (name, genome) =
      let m = Genome.to_multiplier ~name genome in
      let lut, probabilities = sweep m in
      let lut_digest = Digest.to_hex (Digest.bytes (Lut.to_bytes lut)) in
      ( lut_digest ^ "|" ^ circuit_dump m.Multipliers.circuit,
        {
          j_name = name;
          j_generation = generation;
          j_genome = genome;
          j_mult = m;
          j_lut = lut;
          j_lut_digest = lut_digest;
          j_probabilities = probabilities;
          j_cached = None;
        } )
    in
    let rec chunks candidates =
      let room = budget - !evaluated - !planned in
      if room > 0 && not (List.is_empty candidates) then begin
        Pool.map_array pool ?max_domains:config.max_domains sweep_job
          (Array.of_list (List.filteri (fun i _ -> i < room) candidates))
        |> Array.iter (fun (key, job) ->
               if Hashtbl.mem seen key then incr cache_hits
               else begin
                 Hashtbl.replace seen key ();
                 incr planned;
                 let cached = Hashtbl.find_opt accuracy_memo job.j_lut_digest in
                 jobs := { job with j_cached = cached } :: !jobs
               end);
        chunks (List.filteri (fun i _ -> i >= room) candidates)
      end
    in
    chunks candidates;
    let jobs = Array.of_list (List.rev !jobs) in
    let outcomes =
      Pool.map_array pool ?max_domains:config.max_domains
        (evaluate ~base_graph ~dataset)
        jobs
    in
    Array.iteri
      (fun i (verdict, memo) ->
        let job = jobs.(i) in
        incr evaluated;
        Option.iter (Hashtbl.replace accuracy_memo job.j_lut_digest) memo;
        match verdict with
        | Scored point -> archive := !archive @ [ (point, job.j_genome) ]
        | Rejected { name; reason } ->
          incr rejected;
          rejections := !rejections @ [ (name, reason) ])
      outcomes
  in
  (* Generation 0: the structural generators, padded with mutants of
     them when the population is larger than the seed set. *)
  let seeds = seed_population () in
  let n_seeds = List.length seeds in
  let initial =
    List.init config.population (fun i ->
        let name, genome = List.nth seeds (i mod n_seeds) in
        if i < n_seeds then (name, genome)
        else
          ( Printf.sprintf "mul8u_evo_s%d_g0_c%d" config.seed i,
            Genome.mutate ~rng ~operations:config.mutations genome ))
  in
  eval_batch ~generation:0 initial;
  let generation = ref 1 in
  while !generation <= config.generations && !evaluated < budget do
    let front = Pareto.front (List.map fst !archive) in
    let parents =
      List.filter_map
        (fun (p : Pareto.point) ->
          List.find_map
            (fun (q, genome) ->
              if q.Pareto.name = p.Pareto.name then Some genome else None)
            !archive)
        front
    in
    let parents = if parents = [] then List.map snd seeds else parents in
    let n_parents = List.length parents in
    let children =
      List.init config.population (fun i ->
          ( Printf.sprintf "mul8u_evo_s%d_g%d_c%d" config.seed !generation i,
            Genome.mutate ~rng ~operations:config.mutations
              (List.nth parents (i mod n_parents)) ))
    in
    eval_batch ~generation:!generation children;
    incr generation
  done;
  {
    config;
    front = Pareto.front (List.map fst !archive);
    evaluated = !evaluated;
    rejected = !rejected;
    cache_hits = !cache_hits;
    rejections = !rejections;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic renderings (wall_seconds deliberately excluded)       *)
(* ------------------------------------------------------------------ *)

let point_json buf (p : Pareto.point) =
  Printf.bprintf buf
    "{\"name\":%S,\"generation\":%d,\"accuracy\":%.6f,\
     \"relative_mac_energy\":%.6f,\"area\":%.1f,\"delay\":%.1f,\
     \"power\":%.6f,\"pdp\":%.6f,\"gates\":%d,\"mae\":%.6f,\"wce\":%d,\
     \"certified\":%b}"
    p.Pareto.name p.Pareto.generation p.Pareto.accuracy p.Pareto.energy
    p.Pareto.area p.Pareto.delay p.Pareto.power p.Pareto.pdp p.Pareto.gates
    p.Pareto.mae p.Pareto.wce p.Pareto.certified

let front_json_string r =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\"seed\":%d,\"model\":%S,\"images\":%d,\"population\":%d,\
     \"generations\":%d,\"mutations\":%d,\"budget\":%d,\"evaluated\":%d,\
     \"rejected\":%d,\"cache_hits\":%d,\"front\":["
    r.config.seed
    (model_name r.config.model)
    r.config.images r.config.population r.config.generations
    r.config.mutations r.config.budget r.evaluated r.rejected r.cache_hits;
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      point_json buf p)
    r.front;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let front_csv_string r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "name,generation,accuracy,relative_mac_energy,area,delay,power,pdp,\
     gates,mae,wce,certified\n";
  List.iter
    (fun (p : Pareto.point) ->
      Printf.bprintf buf "%s,%d,%.6f,%.6f,%.1f,%.1f,%.6f,%.6f,%d,%.6f,%d,%b\n"
        p.Pareto.name p.Pareto.generation p.Pareto.accuracy p.Pareto.energy
        p.Pareto.area p.Pareto.delay p.Pareto.power p.Pareto.pdp
        p.Pareto.gates p.Pareto.mae p.Pareto.wce p.Pareto.certified)
    r.front;
  Buffer.contents buf

let pp_front ppf r =
  Format.fprintf ppf "@[<v>%-22s %4s %9s %9s %8s %7s %9s %6s %11s %6s@,"
    "name" "gen" "accuracy" "rel. MAC" "area" "delay" "pdp" "gates" "mae" "wce";
  List.iter
    (fun (p : Pareto.point) ->
      Format.fprintf ppf "%-22s %4d %9.4f %9.4f %8.0f %7.1f %9.2f %6d %11.2f %6d@,"
        p.Pareto.name p.Pareto.generation p.Pareto.accuracy p.Pareto.energy
        p.Pareto.area p.Pareto.delay p.Pareto.pdp p.Pareto.gates p.Pareto.mae
        p.Pareto.wce)
    r.front;
  Format.fprintf ppf
    "%d evaluated, %d rejected, %d cache hit(s), front size %d@]" r.evaluated
    r.rejected r.cache_hits (List.length r.front)
