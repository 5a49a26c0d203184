(* Tester-floor debugging with full response data.

     dune exec examples/diagnosis_demo.exe

   The paper's closing argument: because the stitched scheme needs no MISR,
   "the aliasing of faults and the possible loss of information for fault
   diagnosis is prevented". This example plays that story out: a chip with a
   hidden manufacturing defect fails on the tester, and the full (MISR-free)
   response data pinpoints the defect — then the same scenario through a
   narrow MISR shows what compaction throws away. *)

module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Diagnosis = Tvs_fault.Diagnosis
module Parallel = Tvs_sim.Parallel
module Cube = Tvs_atpg.Cube
module Podem = Tvs_atpg.Podem
module Misr = Tvs_scan.Misr
module Baseline = Tvs_core.Baseline
module Rng = Tvs_util.Rng

let bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let () =
  let c = Tvs_circuits.Synth.generate_named "s444" in
  Format.printf "Device under test: %a@." Circuit.pp_summary c;
  let faults = Fault_gen.collapsed c in
  let ctx = Podem.create c in
  let baseline = Baseline.run ~rng:(Rng.of_string "diag:baseline") ctx ~faults in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) baseline.Baseline.vectors
  in
  Format.printf "Test program: %d vectors. Building the fault dictionary...@."
    (Array.length tests);
  let sim = Parallel.create c in
  let dict = Diagnosis.build sim ~faults ~tests in
  Format.printf "Dictionary: %d faults detected, %d distinguishable behaviours (%.2f faults/class)@."
    (Diagnosis.num_detected dict) (Diagnosis.num_classes dict) (Diagnosis.resolution dict);

  (* A "manufactured" chip with a defect we pretend not to know. *)
  let secret_defect = faults.(Array.length faults / 3) in
  let observed = Diagnosis.respond sim ~tests ~fault:secret_defect () in
  Format.printf "@.A device fails on the ATE. Diagnosing from the full response data:@.";
  (match Diagnosis.diagnose dict ~observed with
  | Diagnosis.No_defect -> Format.printf "  device looks clean (?)@."
  | Diagnosis.Unknown_defect -> Format.printf "  behaviour matches no modelled fault@."
  | Diagnosis.Candidates cands ->
      Format.printf "  candidate defect site(s): %s@."
        (String.concat ", " (List.map (Fault.name c) cands));
      Format.printf "  (the injected defect was %s)@." (Fault.name c secret_defect));

  (* The same failing device observed only through an 8-bit MISR. *)
  let width = 8 in
  let good_sig = Misr.signature_of ~width (Diagnosis.respond sim ~tests ()) in
  let bad_sig = Misr.signature_of ~width observed in
  Format.printf "@.Through an %d-bit MISR the tester keeps %d bits instead of %d:@." width width
    (List.fold_left (fun acc a -> acc + Array.length a) 0 observed);
  Format.printf "  good signature %s, failing signature %s -> %s@."
    (bits good_sig) (bits bad_sig)
    (if good_sig = bad_sig then "ALIASED: the defect escapes!"
     else "fails, but which fault? The signature cannot say.");
  (* How many faults share that signature? *)
  let sharing =
    Array.to_list faults
    |> List.filter (fun f ->
           bad_sig = Misr.signature_of ~width (Diagnosis.respond sim ~tests ~fault:f ()))
  in
  Format.printf "  %d modelled faults produce this very signature.@." (List.length sharing);
  Format.printf
    "@.The stitched flow ships the raw stream to the ATE, so the dictionary@.%s@."
    "diagnosis above is available for free - no MISR, no aliasing, no guesswork."
