(* End-to-end flows: baseline ATPG and the stitching engine on the embedded
   s27 and on synthetic profile circuits, checking coverage preservation,
   compression, and determinism. *)

module Circuit = Tvs_netlist.Circuit
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Cost = Tvs_scan.Cost
module Xor_scheme = Tvs_scan.Xor_scheme
module Baseline = Tvs_core.Baseline
module Engine = Tvs_core.Engine
module Policy = Tvs_core.Policy
module Rng = Tvs_util.Rng

let prep circuit =
  let faults = Fault_gen.collapsed circuit in
  let ctx = Podem.create circuit in
  let rng = Rng.of_string (Circuit.name circuit ^ ":baseline") in
  let baseline = Baseline.run ~rng ctx ~faults in
  (ctx, faults, baseline)

let run_engine ?config ctx ~faults ~baseline ~seed =
  let testable = Baseline.testable_faults baseline faults in
  Engine.run ?config ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string seed) ctx
    ~faults:testable

let test_s27_baseline () =
  let c = Tvs_circuits.S27.circuit () in
  let _, faults, baseline = prep c in
  Alcotest.(check bool) "some faults" true (Array.length faults > 20);
  Alcotest.(check (float 0.0001)) "full coverage of testable faults" 1.0 baseline.Baseline.coverage;
  Alcotest.(check bool) "nonempty test set" true (baseline.Baseline.num_vectors > 0)

let test_s27_engine_full_coverage () =
  let c = Tvs_circuits.S27.circuit () in
  let ctx, faults, baseline = prep c in
  let r = run_engine ctx ~faults ~baseline ~seed:"s27:engine" in
  Alcotest.(check (float 0.0001)) "stitched flow loses no coverage" 1.0 (Engine.coverage r);
  Alcotest.(check bool) "uses stitched vectors" true (r.Engine.stitched_vectors > 0)

let test_s27_determinism () =
  let c = Tvs_circuits.S27.circuit () in
  let ctx, faults, baseline = prep c in
  let r1 = run_engine ctx ~faults ~baseline ~seed:"d" in
  let r2 = run_engine ctx ~faults ~baseline ~seed:"d" in
  Alcotest.(check int) "same vector count" r1.Engine.stitched_vectors r2.Engine.stitched_vectors;
  Alcotest.(check int) "same extra count" r1.Engine.extra_vectors r2.Engine.extra_vectors;
  Alcotest.(check (list int)) "same shift schedule" r1.Engine.schedule.Cost.shifts
    r2.Engine.schedule.Cost.shifts

let test_synth_s444_compresses () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx, faults, baseline = prep c in
  let r = run_engine ctx ~faults ~baseline ~seed:"s444:engine" in
  Alcotest.(check (float 0.0001)) "no coverage loss" 1.0 (Engine.coverage r);
  let ratios = Cost.ratios r.Engine.schedule ~baseline_nvec:baseline.Baseline.num_vectors in
  Alcotest.(check bool)
    (Printf.sprintf "test time shrinks (t=%.2f)" ratios.Cost.t)
    true (ratios.Cost.t < 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "memory shrinks (m=%.2f)" ratios.Cost.m)
    true (ratios.Cost.m < 1.0)

let test_fixed_shift_engine () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx, faults, baseline = prep c in
  let chain_len = Circuit.num_flops c in
  let config =
    { (Engine.default_config ~chain_len) with shift = Policy.Fixed (chain_len / 2) }
  in
  let r = run_engine ~config ctx ~faults ~baseline ~seed:"s444:fixed" in
  Alcotest.(check (float 0.0001)) "no coverage loss" 1.0 (Engine.coverage r);
  List.iteri
    (fun i s ->
      let expected = if i = 0 then chain_len else chain_len / 2 in
      Alcotest.(check int) (Printf.sprintf "shift %d honours policy" i) expected s)
    r.Engine.schedule.Cost.shifts

(* A fixed shift outside 1..chain length is refused before the first cycle,
   by a message that names both numbers: no checkpoint is ever taken. *)
let test_fixed_shift_out_of_range () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx, faults, _ = prep c in
  let chain_len = Circuit.num_flops c in
  List.iter
    (fun s ->
      let config = { (Engine.default_config ~chain_len) with shift = Policy.Fixed s } in
      let saved = ref 0 in
      Alcotest.check_raises
        (Printf.sprintf "shift %d refused" s)
        (Failure
           (Printf.sprintf "fixed shift %d is outside 1..%d, the scan chain length of %s" s
              chain_len (Circuit.name c)))
        (fun () ->
          ignore
            (Engine.run ~config ~checkpoint:(1, fun _ -> incr saved) ~rng:(Rng.of_string "s444")
               ctx ~faults));
      Alcotest.(check int) (Printf.sprintf "shift %d ran no cycle" s) 0 !saved)
    [ chain_len + 1; 0 ]

(* A circuit with no flip-flops has no scan chain to stitch through: the
   default variable policy is refused before the first cycle, by name. *)
let test_no_flops_refused () =
  let b = Circuit.Builder.create "comb" in
  let x = Circuit.Builder.input b "x" and y = Circuit.Builder.input b "y" in
  Circuit.Builder.mark_output b
    (Circuit.Builder.gate b ~name:"z" Tvs_netlist.Gate.Nand [ x; y ]);
  let c = Circuit.Builder.finish b in
  let ctx, faults, _ = prep c in
  let saved = ref 0 in
  Alcotest.check_raises "refused"
    (Failure "comb has no flip-flops: the stitched flow needs a scan chain") (fun () ->
      ignore
        (Engine.run ~checkpoint:(1, fun _ -> incr saved) ~rng:(Rng.of_string "comb") ctx ~faults));
  Alcotest.(check int) "ran no cycle" 0 !saved

let test_vxor_engine () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx, faults, baseline = prep c in
  let chain_len = Circuit.num_flops c in
  let config = { (Engine.default_config ~chain_len) with scheme = Xor_scheme.Vxor } in
  let r = run_engine ~config ctx ~faults ~baseline ~seed:"s444:vxor" in
  Alcotest.(check (float 0.0001)) "no coverage loss under VXOR" 1.0 (Engine.coverage r)

let test_hxor_engine () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx, faults, baseline = prep c in
  let chain_len = Circuit.num_flops c in
  let config = { (Engine.default_config ~chain_len) with scheme = Xor_scheme.Hxor 3 } in
  let r = run_engine ~config ctx ~faults ~baseline ~seed:"s444:hxor" in
  Alcotest.(check (float 0.0001)) "no coverage loss under HXOR" 1.0 (Engine.coverage r)

let test_selection_strategies () =
  let c = Tvs_circuits.S27.circuit () in
  let ctx, faults, baseline = prep c in
  let chain_len = Circuit.num_flops c in
  List.iter
    (fun selection ->
      let config = { (Engine.default_config ~chain_len) with selection } in
      let r = run_engine ~config ctx ~faults ~baseline ~seed:"s27:sel" in
      Alcotest.(check (float 0.0001))
        (Policy.describe_selection selection ^ " keeps coverage")
        1.0 (Engine.coverage r))
    [ Policy.Random_order; Policy.Hardness_order; Policy.Most_faults 3; Policy.Weighted 3 ]

let () =
  Alcotest.run "integration"
    [
      ( "s27",
        [
          Alcotest.test_case "baseline full coverage" `Quick test_s27_baseline;
          Alcotest.test_case "engine full coverage" `Quick test_s27_engine_full_coverage;
          Alcotest.test_case "determinism" `Quick test_s27_determinism;
          Alcotest.test_case "selection strategies" `Quick test_selection_strategies;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "s444 compresses" `Quick test_synth_s444_compresses;
          Alcotest.test_case "fixed shift policy" `Quick test_fixed_shift_engine;
          Alcotest.test_case "fixed shift out of range" `Quick test_fixed_shift_out_of_range;
          Alcotest.test_case "no flip-flops refused" `Quick test_no_flops_refused;
          Alcotest.test_case "vxor scheme" `Quick test_vxor_engine;
          Alcotest.test_case "hxor scheme" `Quick test_hxor_engine;
        ] );
    ]
