(* Tests for the ATE program format: round-tripping, validation, and the
   end-to-end property that an exported stitched schedule drives the physical
   scan-inserted netlist exactly as the generator intended. *)

module Circuit = Tvs_netlist.Circuit
module Scan_insert = Tvs_netlist.Scan_insert
module Protocol = Tvs_scan.Protocol
module Tester_format = Tvs_scan.Tester_format
module Chain = Tvs_scan.Chain
module Parallel = Tvs_sim.Parallel
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Baseline = Tvs_core.Baseline
module Engine = Tvs_core.Engine
module Rng = Tvs_util.Rng

let sample_program () =
  let vectors =
    [ ([| true; false |], [| true; true; false |]); ([| false; false |], [| false; true |]) ]
  in
  Tester_format.of_stitched ~chain_len:3 ~npi:2 ~vectors

let test_roundtrip () =
  let p = sample_program () in
  let p' = Tester_format.of_string (Tester_format.to_string p) in
  Alcotest.(check int) "chain" p.Tester_format.chain_len p'.Tester_format.chain_len;
  Alcotest.(check int) "pins" p.Tester_format.npi p'.Tester_format.npi;
  Alcotest.(check bool) "ops preserved" true (p.Tester_format.ops = p'.Tester_format.ops)

let test_counts () =
  let p = sample_program () in
  (* 3 + 2 shifts for the loads, 3 for the default full unload. *)
  Alcotest.(check int) "shift cycles" 8 (Tester_format.num_shift_cycles p);
  Alcotest.(check int) "captures" 2 (Tester_format.num_captures p)

let test_file_io () =
  let p = sample_program () in
  let path = Filename.temp_file "tvs" ".prog" in
  Tester_format.write_file path p;
  let p' = Tester_format.read_file path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip" true (p.Tester_format.ops = p'.Tester_format.ops)

let expect_parse_error text =
  try
    ignore (Tester_format.of_string text);
    false
  with Tester_format.Parse_error _ -> true

let test_parse_errors () =
  Alcotest.(check bool) "missing header" true (expect_parse_error "chain 3\npins 1\n");
  Alcotest.(check bool) "bad shift bit" true
    (expect_parse_error "tvs-program v1\nchain 3\npins 0\nshift 2\n");
  Alcotest.(check bool) "missing chain" true (expect_parse_error "tvs-program v1\npins 1\n");
  Alcotest.(check bool) "capture width mismatch" true
    (expect_parse_error "tvs-program v1\nchain 3\npins 2\ncapture 101\n");
  Alcotest.(check bool) "comments tolerated" false
    (expect_parse_error "tvs-program v1 # header\nchain 3\npins 0\nshift 1 # bit\ncapture\n")

(* The deliverable property: exporting an engine run and replaying the file
   on the physical netlist applies exactly the vectors the engine generated
   (checked through the capture count and the scan stream length), and the
   replay is deterministic across the text round-trip. *)
let test_exported_program_drives_hardware () =
  let c = Tvs_circuits.S27.circuit () in
  let faults = Fault_gen.collapsed c in
  let ctx = Podem.create c in
  let baseline = Baseline.run ~rng:(Rng.of_string "exp:base") ctx ~faults in
  let r =
    Engine.run ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "exp:eng") ctx
      ~faults:(Baseline.testable_faults baseline faults)
  in
  let chain_len = Circuit.num_flops c in
  let program =
    Tester_format.of_stitched ~chain_len ~npi:(Circuit.num_inputs c)
      ~vectors:r.Engine.stimuli
  in
  let program' = Tester_format.of_string (Tester_format.to_string program) in
  let inserted = Scan_insert.insert c in
  let init = Array.make chain_len false in
  let obs = Protocol.run inserted ~init program'.Tester_format.ops in
  Alcotest.(check int) "one PO strobe per stitched vector" r.Engine.stitched_vectors
    (List.length obs.Protocol.po_samples);
  Alcotest.(check int) "stream length = shift cycles"
    (Tester_format.num_shift_cycles program')
    (List.length obs.Protocol.scan_stream);
  (* Replaying the original (pre-roundtrip) ops gives identical data. *)
  let obs0 = Protocol.run inserted ~init program.Tester_format.ops in
  Alcotest.(check bool) "round-trip replay identical" true
    (obs0.Protocol.scan_stream = obs.Protocol.scan_stream
    && obs0.Protocol.po_samples = obs.Protocol.po_samples)

let test_stimuli_match_schedule () =
  (* Engine bookkeeping: the recorded stimuli agree with the shift schedule. *)
  let c = Tvs_circuits.S27.circuit () in
  let faults = Fault_gen.collapsed c in
  let ctx = Podem.create c in
  let baseline = Baseline.run ~rng:(Rng.of_string "exp:base2") ctx ~faults in
  let r =
    Engine.run ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "exp:eng2") ctx
      ~faults:(Baseline.testable_faults baseline faults)
  in
  Alcotest.(check int) "one stimulus per vector" r.Engine.stitched_vectors
    (List.length r.Engine.stimuli);
  List.iter2
    (fun (_, fresh) s -> Alcotest.(check int) "fresh width = shift" s (Array.length fresh))
    r.Engine.stimuli r.Engine.schedule.Tvs_scan.Cost.shifts;
  Alcotest.(check int) "extras recorded" r.Engine.extra_vectors
    (List.length r.Engine.extra_stimuli)

let () =
  Alcotest.run "export"
    [
      ( "format",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "counters" `Quick test_counts;
          Alcotest.test_case "file I/O" `Quick test_file_io;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "exported program drives hardware" `Quick
            test_exported_program_drives_hardware;
          Alcotest.test_case "stimuli match schedule" `Quick test_stimuli_match_schedule;
        ] );
    ]
