(* GPU execution model: texture-cache simulator invariants, cost-model
   sanity and monotonicity, workload extraction. *)

module Device = Ax_gpusim.Device
module Texcache = Ax_gpusim.Texcache
module Cost = Ax_gpusim.Cost
module Energy = Ax_gpusim.Energy
module Multipliers = Ax_netlist.Multipliers
module Power = Ax_netlist.Power
module Netlist_circuit = Ax_netlist.Circuit
module Shape = Ax_tensor.Shape
module Rng = Ax_tensor.Rng
module Resnet = Ax_models.Resnet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- texcache --- *)

let test_cache_geometry_validation () =
  Alcotest.check_raises "line size"
    (Invalid_argument "Texcache.create: line size must be a power of two")
    (fun () -> ignore (Texcache.create ~size_bytes:1024 ~line_bytes:24 ~ways:2));
  Alcotest.check_raises "divisibility"
    (Invalid_argument "Texcache.create: size not divisible by line*ways")
    (fun () -> ignore (Texcache.create ~size_bytes:1000 ~line_bytes:32 ~ways:2))

let test_zero_capacity_always_misses () =
  let c = Texcache.create ~size_bytes:0 ~line_bytes:32 ~ways:1 in
  for i = 0 to 99 do
    if Texcache.access c (i mod 4) then Alcotest.fail "zero cache hit"
  done;
  check_float "hit rate 0" 0. (Texcache.hit_rate c)

let test_repeated_address_hits () =
  let c = Texcache.create ~size_bytes:1024 ~line_bytes:32 ~ways:2 in
  ignore (Texcache.access c 100);
  for _ = 1 to 10 do
    check_bool "same line hits" true (Texcache.access c 100)
  done;
  check_bool "same line other byte hits" true (Texcache.access c 101)

let test_cache_large_enough_never_misses_after_warmup () =
  (* A cache holding the whole 128 kB LUT: after one pass over every
     line, everything hits — the paper's dedicated-cache argument. *)
  let c = Texcache.create ~size_bytes:(128 * 1024) ~line_bytes:32 ~ways:4 in
  let rng = Rng.create 1 in
  (* warmup: touch every line *)
  for line = 0 to (128 * 1024 / 32) - 1 do
    ignore (Texcache.access c (line * 32))
  done;
  Texcache.reset_stats c;
  for _ = 1 to 10_000 do
    let ca = Rng.int rng 256 and cb = Rng.int rng 256 in
    ignore (Texcache.access c (Texcache.lut_address ca cb))
  done;
  check_float "100% hits after warmup" 1. (Texcache.hit_rate c)

let test_small_cache_thrashes_on_uniform_traffic () =
  let c = Texcache.create ~size_bytes:2048 ~line_bytes:32 ~ways:2 in
  let rng = Rng.create 2 in
  let pairs =
    Array.init 20_000 (fun _ -> (Rng.int rng 256, Rng.int rng 256))
  in
  let rate = Texcache.simulate_lut_stream c pairs in
  (* 2 kB of 128 kB resident: hit rate must be poor. *)
  check_bool (Printf.sprintf "thrashing (%.3f)" rate) true (rate < 0.2)

let test_narrow_value_range_caches_well () =
  (* Quantized CNN values cluster; a narrow code range fits the cache.
     This is why the texture cache works so well in practice. *)
  let c = Texcache.create ~size_bytes:(16 * 1024) ~line_bytes:32 ~ways:4 in
  let rng = Rng.create 3 in
  let pairs =
    Array.init 20_000 (fun _ -> (64 + Rng.int rng 32, 96 + Rng.int rng 32))
  in
  ignore (Texcache.simulate_lut_stream c pairs);
  let rate = Texcache.simulate_lut_stream c pairs in
  check_bool (Printf.sprintf "narrow range cached (%.3f)" rate) true
    (rate > 0.9)

let test_lru_eviction_order () =
  (* 2 ways, 1 set of 2 lines: A B A C -> C evicts B, so A still hits. *)
  let c = Texcache.create ~size_bytes:64 ~line_bytes:32 ~ways:2 in
  check_bool "A miss" false (Texcache.access c 0);
  check_bool "B miss" false (Texcache.access c 32);
  check_bool "A hit" true (Texcache.access c 0);
  check_bool "C miss" false (Texcache.access c 64);
  check_bool "A survives (B was LRU)" true (Texcache.access c 0);
  check_bool "B evicted" false (Texcache.access c 32)

let test_flush () =
  let c = Texcache.create ~size_bytes:1024 ~line_bytes:32 ~ways:2 in
  ignore (Texcache.access c 0);
  Texcache.flush c;
  check_int "stats cleared" 0 (Texcache.accesses c);
  check_bool "contents cleared" false (Texcache.access c 0)

(* --- cost model --- *)

let resnet_workloads depth images =
  let g = Resnet.build ~with_batch_norm:false ~depth () in
  Cost.workloads_of_graph g ~input:(Resnet.input_shape ~batch:1) ~images

let test_workload_counts () =
  let ws = resnet_workloads 8 100 in
  check_int "one workload per conv" 7 (List.length ws);
  let macs = Cost.total_macs ws in
  check_bool "macs = images * per-image" true
    (abs_float (macs -. (100. *. float_of_int (Resnet.macs_per_image ~depth:8)))
     < 1.)

let test_approx_time_linear_in_depth () =
  (* Table I: t_comp grows linearly with MACs.  The model must preserve
     monotone, near-proportional growth. *)
  let t depth =
    Cost.total
      (Cost.approx_network Device.gtx_1080 ~chunk_size:250
         (resnet_workloads depth 1000))
  in
  let t8 = t 8 and t32 = t 32 and t62 = t 62 in
  check_bool "monotone" true (t8 < t32 && t32 < t62);
  let m8 = float_of_int (Resnet.macs_per_image ~depth:8) in
  let m62 = float_of_int (Resnet.macs_per_image ~depth:62) in
  let ratio_time = t62 /. t8 and ratio_macs = m62 /. m8 in
  check_bool
    (Printf.sprintf "near-proportional (time x%.1f, macs x%.1f)" ratio_time
       ratio_macs)
    true
    (ratio_time > 0.5 *. ratio_macs && ratio_time < 1.5 *. ratio_macs)

let test_approx_slower_than_accurate_on_gpu () =
  (* Table I: GPU AxConv2D is roughly 10x the accurate GPU time. *)
  let ws = resnet_workloads 32 1000 in
  let acc = Cost.total (Cost.accurate_network Device.gtx_1080 ws) in
  let apx =
    Cost.total (Cost.approx_network Device.gtx_1080 ~chunk_size:250 ws)
  in
  check_bool
    (Printf.sprintf "emulation overhead (acc %.3f apx %.3f)" acc apx)
    true
    (apx > 3. *. acc && apx < 40. *. acc)

let test_lut_hit_rate_affects_time () =
  let ws = resnet_workloads 20 1000 in
  let slow =
    Cost.total
      (Cost.approx_network Device.gtx_1080 ~lut_hit_rate:0. ~chunk_size:250 ws)
  in
  let fast =
    Cost.total
      (Cost.approx_network Device.gtx_1080 ~lut_hit_rate:1. ~chunk_size:250 ws)
  in
  check_bool "misses cost time" true (slow > fast)

let test_phases_accounting () =
  let ws = resnet_workloads 20 1000 in
  let p = Cost.approx_network Device.gtx_1080 ~chunk_size:250 ws in
  check_bool "all phases positive" true
    (p.Cost.quantization_s > 0. && p.Cost.lut_s > 0. && p.Cost.other_s > 0.);
  check_float "init charged separately" 0. p.Cost.init_s;
  let init =
    Cost.transfer_init Device.gtx_1080 ~dataset_bytes:3e7 ~weight_bytes:1e6
  in
  check_bool "init dominated by context setup" true
    (init.Cost.init_s >= Device.gtx_1080.Device.context_setup_s);
  let whole = Cost.add p init in
  let b = Cost.breakdown whole in
  let sum =
    b.Ax_nn.Profile.init_pct +. b.Ax_nn.Profile.quantization_pct
    +. b.Ax_nn.Profile.lut_pct +. b.Ax_nn.Profile.other_pct
  in
  check_bool "breakdown sums to 100" true (abs_float (sum -. 100.) < 1e-6)

let test_measure_hit_rate_on_real_codes () =
  (* Quantize a real layer's data and replay its GEMM access stream. *)
  let module Tensor = Ax_tensor.Tensor in
  let module Filter = Ax_nn.Filter in
  let module Q = Ax_quant.Quantization in
  let input = Tensor.create (Shape.make ~n:1 ~h:16 ~w:16 ~c:8) in
  Tensor.fill_uniform ~lo:0. ~hi:1. (Rng.create 4) input;
  let filter = Filter.create ~kh:3 ~kw:3 ~in_c:8 ~out_c:16 in
  Filter.fill_he_normal (Rng.create 5) filter;
  let spec = Ax_nn.Conv_spec.default in
  let plan = Ax_nn.Im2col.make (Tensor.shape input) ~kh:3 ~kw:3 ~spec in
  let coeffs = Q.compute_coeffs Ax_arith.Signedness.Unsigned ~rmin:0. ~rmax:1. in
  let mp, _ =
    Ax_nn.Im2col.to_codes plan input ~coeffs
      ~round_mode:Ax_quant.Round.Nearest_even
      ~signedness:Ax_arith.Signedness.Unsigned
  in
  let fmin, fmax = Filter.min_max filter in
  let fcoeffs =
    Q.compute_coeffs Ax_arith.Signedness.Unsigned ~rmin:fmin ~rmax:fmax
  in
  let mf_t, _ =
    Ax_nn.Axconv.quantize_filters Ax_arith.Signedness.Unsigned fcoeffs
      Ax_quant.Round.Nearest_even filter
  in
  let rate =
    Cost.measure_hit_rate Device.gtx_1080 ~mp ~mf_t ~rows:plan.Ax_nn.Im2col.rows
      ~taps:72 ~out_c:16 ~sample_rows:64
  in
  check_bool (Printf.sprintf "plausible hit rate (%.3f)" rate) true
    (rate > 0.5 && rate <= 1.)

let test_per_layer_report () =
  let g = Resnet.build ~with_batch_norm:false ~depth:8 () in
  let ws =
    Cost.workloads_of_graph g ~input:(Resnet.input_shape ~batch:1)
      ~images:1000
  in
  let report = Cost.per_layer Device.gtx_1080 ~chunk_size:250 ws in
  check_int "one entry per conv" 7 (List.length report);
  (* Labels come from the graph node names. *)
  check_bool "stem labelled" true (List.mem_assoc "conv0" report);
  check_bool "block conv labelled" true
    (List.mem_assoc "stage0/block0/conv1" report);
  (* Per-layer kernel times sum to the network body (no transfers). *)
  let sum =
    List.fold_left (fun acc (_, p) -> acc +. Cost.total p) 0. report
  in
  let whole =
    Cost.total (Cost.approx_network Device.gtx_1080 ~chunk_size:250 ws)
  in
  check_bool
    (Printf.sprintf "per-layer sums to network (%.4f vs %.4f)" sum whole)
    true
    (abs_float (sum -. whole) < 1e-9)

let test_device_peaks () =
  check_bool "gtx1080 peak flops" true
    (abs_float (Device.peak_flops Device.gtx_1080 -. 4.4288e12) < 1e9);
  check_bool "lut rate below flops" true
    (Device.peak_lut_rate Device.gtx_1080 < Device.peak_flops Device.gtx_1080)

let test_smaller_device_is_slower () =
  let ws = resnet_workloads 20 1000 in
  let big =
    Cost.total (Cost.approx_network Device.gtx_1080 ~chunk_size:250 ws)
  in
  let small =
    Cost.total (Cost.approx_network Device.jetson_class ~chunk_size:250 ws)
  in
  let fast =
    Cost.total (Cost.approx_network Device.datacenter_class ~chunk_size:250 ws)
  in
  check_bool "jetson slower than gtx1080" true (small > big);
  check_bool "datacenter faster than gtx1080" true (fast < big)

(* --- energy --- *)

let test_energy_relative_sane () =
  let exact =
    Energy.mac_of_report
      (Power.analyze (Multipliers.unsigned_array ~bits:8).Multipliers.circuit)
  in
  check_bool "exact MAC is the unit" true
    (abs_float (Energy.relative_mac_energy exact -. 1.0) < 1e-9);
  check_float "total is the component sum" 3.0
    (Energy.total { Energy.multiplier_energy = 1.0; accumulator_energy = 2.0 });
  let trunc =
    Energy.mac_of_report
      (Power.analyze (Multipliers.truncated ~bits:8 ~cut:8).Multipliers.circuit)
  in
  let r = Energy.relative_mac_energy trunc in
  check_bool "truncation saves energy" true (r > 0. && r < 1.);
  check_bool "savings percent consistent" true
    (abs_float (Energy.savings_percent trunc -. (100. *. (1. -. r))) < 1e-9)

(* The legitimate edge the guard must NOT reject: an all-constant
   "multiplier" has zero switching power of its own, but the MAC ratio
   stays finite and positive through the accumulator share.  Exactly
   the shape an aggressive const-folding mutation produces in the
   explore search. *)
let test_energy_degenerate_multiplier_ok () =
  let c = Netlist_circuit.create ~name:"all_const" () in
  for i = 0 to 7 do
    ignore (Netlist_circuit.input c (Printf.sprintf "a%d" i))
  done;
  for i = 0 to 7 do
    ignore (Netlist_circuit.input c (Printf.sprintf "b%d" i))
  done;
  let zero = Netlist_circuit.const c false in
  for i = 0 to 15 do
    Netlist_circuit.output c (Printf.sprintf "p%d" i) zero
  done;
  let r = Energy.relative_mac_energy (Energy.mac_of_report (Power.analyze c)) in
  check_bool "finite, positive, below the exact MAC" true
    (Float.is_finite r && r > 0. && r < 1.)

(* A NaN, infinite or negative component must be a typed error at the
   division, never a NaN leaking into Pareto dominance comparisons. *)
let test_energy_rejects_poisoned_profiles () =
  let rejects p =
    match Energy.relative_mac_energy p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "nan multiplier energy" true
    (rejects { Energy.multiplier_energy = Float.nan; accumulator_energy = 0. });
  check_bool "infinite accumulator energy" true
    (rejects
       { Energy.multiplier_energy = 0.; accumulator_energy = Float.infinity });
  check_bool "negative component" true
    (rejects { Energy.multiplier_energy = -1.; accumulator_energy = 1. });
  check_bool "network energy goes through the same guard" true
    (match
       Energy.network_energy
         { Energy.multiplier_energy = Float.nan; accumulator_energy = 0. }
         ~macs:10.
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "ax_gpusim"
    [
      ( "texcache",
        [
          Alcotest.test_case "geometry validation" `Quick
            test_cache_geometry_validation;
          Alcotest.test_case "zero capacity misses" `Quick
            test_zero_capacity_always_misses;
          Alcotest.test_case "repeated address hits" `Quick
            test_repeated_address_hits;
          Alcotest.test_case "full-LUT cache never misses" `Quick
            test_cache_large_enough_never_misses_after_warmup;
          Alcotest.test_case "small cache thrashes" `Quick
            test_small_cache_thrashes_on_uniform_traffic;
          Alcotest.test_case "narrow range caches well" `Quick
            test_narrow_value_range_caches_well;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction_order;
          Alcotest.test_case "flush" `Quick test_flush;
        ] );
      ( "cost",
        [
          Alcotest.test_case "workload extraction" `Quick test_workload_counts;
          Alcotest.test_case "linear in depth" `Quick
            test_approx_time_linear_in_depth;
          Alcotest.test_case "emulation overhead vs accurate" `Quick
            test_approx_slower_than_accurate_on_gpu;
          Alcotest.test_case "hit rate affects time" `Quick
            test_lut_hit_rate_affects_time;
          Alcotest.test_case "phase accounting" `Quick test_phases_accounting;
          Alcotest.test_case "hit rate from real codes" `Quick
            test_measure_hit_rate_on_real_codes;
          Alcotest.test_case "per-layer report" `Quick test_per_layer_report;
          Alcotest.test_case "device peaks" `Quick test_device_peaks;
          Alcotest.test_case "device sweep ordering" `Quick
            test_smaller_device_is_slower;
        ] );
      ( "energy",
        [
          Alcotest.test_case "relative MAC energy sane" `Quick
            test_energy_relative_sane;
          Alcotest.test_case "degenerate multiplier accepted" `Quick
            test_energy_degenerate_multiplier_ok;
          Alcotest.test_case "poisoned profiles rejected" `Quick
            test_energy_rejects_poisoned_profiles;
        ] );
    ]
