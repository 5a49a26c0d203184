(* Unit tests for Tvs_fault: the fault model, list generation, structural
   collapsing, and the batch fault-simulation drivers. *)

module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Rng = Tvs_util.Rng

let fig1 = Tvs_circuits.Fig1.circuit ()

(* --- fault naming / structure --------------------------------------- *)

let test_fault_names () =
  let f = Tvs_circuits.Fig1.paper_fault fig1 "F/0" in
  Alcotest.(check string) "stem name" "F/0" (Fault.name fig1 f);
  let bf = Tvs_circuits.Fig1.paper_fault fig1 "B-D/1" in
  Alcotest.(check string) "branch name" "B-D/1" (Fault.name fig1 bf);
  Alcotest.(check bool) "branch recorded" true (bf.Fault.branch <> None)

let test_fault_equality () =
  let a = Fault.stem_fault 3 true and b = Fault.stem_fault 3 true in
  Alcotest.(check bool) "equal" true (Fault.equal a b);
  Alcotest.(check bool) "hash agrees" true (Fault.hash a = Fault.hash b);
  Alcotest.(check bool) "polarity distinguishes" false (Fault.equal a (Fault.stem_fault 3 false))

(* --- fault list ------------------------------------------------------ *)

let test_all_fault_count_fig1 () =
  (* 6 nets -> 12 stem faults; stems B, D, E have fanout 2 -> 12 branch
     faults. *)
  let faults = Fault_gen.all fig1 in
  Alcotest.(check int) "24 faults" 24 (Array.length faults)

let test_all_faults_distinct () =
  let faults = Fault_gen.all (Tvs_circuits.S27.circuit ()) in
  let tbl = Hashtbl.create 64 in
  Array.iter (fun f -> Hashtbl.replace tbl f ()) faults;
  Alcotest.(check int) "no duplicates" (Array.length faults) (Hashtbl.length tbl)

let test_collapse_shrinks () =
  let c = Tvs_circuits.S27.circuit () in
  let all = Fault_gen.all c in
  let collapsed = Fault_gen.collapsed c in
  Alcotest.(check bool) "collapsed is smaller" true (Array.length collapsed < Array.length all);
  Alcotest.(check bool) "ratio sane" true
    (let r = Fault_gen.collapse_ratio c in
     r > 0.3 && r < 1.0)

let test_collapse_inverter_chain () =
  (* a -> NOT g1 -> NOT g2 (output). All six stem faults collapse to the two
     on g2: input s-a-v == output s-a-(not v) through each inverter. *)
  let b = Circuit.Builder.create "invchain" in
  let a = Circuit.Builder.input b "a" in
  let g1 = Circuit.Builder.gate b ~name:"g1" Gate.Not [ a ] in
  let g2 = Circuit.Builder.gate b ~name:"g2" Gate.Not [ g1 ] in
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finish b in
  let collapsed = Fault_gen.collapsed c in
  Alcotest.(check int) "two classes" 2 (Array.length collapsed);
  Array.iter
    (fun f -> Alcotest.(check int) "representative on the output" (Circuit.find_net c "g2") f.Fault.stem)
    collapsed

let test_collapse_no_merge_through_po () =
  (* When the fanin is itself a primary output its stem stays
     distinguishable, so it must not merge into the gate output fault. *)
  let b = Circuit.Builder.create "pofanin" in
  let a = Circuit.Builder.input b "a" in
  let g1 = Circuit.Builder.gate b ~name:"g1" Gate.Not [ a ] in
  Circuit.Builder.mark_output b g1;
  let g2 = Circuit.Builder.gate b ~name:"g2" Gate.Not [ g1 ] in
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finish b in
  let collapsed = Fault_gen.collapsed c in
  let on_g1 =
    Array.to_list collapsed |> List.filter (fun f -> f.Fault.stem = Circuit.find_net c "g1")
  in
  Alcotest.(check int) "g1 faults survive" 2 (List.length on_g1)

(* Semantic check: every fault removed by collapsing is detected by exactly
   the same random vectors as some surviving representative. We verify the
   weaker (but meaningful) form: any vector detecting a representative set
   detects the full set, and coverage of the two lists agrees. *)
let test_collapse_detection_equivalent () =
  let c = Tvs_circuits.S27.circuit () in
  let all = Fault_gen.all c in
  let collapsed = Fault_gen.collapsed c in
  let sim = Fault_sim.create c in
  let rng = Rng.of_string "collapse-detect" in
  for _ = 1 to 40 do
    let pi = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
    let state = Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) in
    let count faults =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
        (Fault_sim.detected_faults sim ~pi ~state faults)
    in
    (* The collapsed list detects a subset count; every collapsed fault that
       is detected corresponds to >= 1 full-list faults, so the full count is
       at least the collapsed count. *)
    Alcotest.(check bool) "full >= collapsed detections" true (count all >= count collapsed)
  done

(* --- fault simulation ------------------------------------------------ *)

let test_outcomes_fig1 () =
  let sim = Fault_sim.create fig1 in
  let v110 = [| true; true; false |] in
  let fault name = Tvs_circuits.Fig1.paper_fault fig1 name in
  let faults = [| fault "D/0"; fault "E-F/1"; fault "F/0" |] in
  let r = Fault_sim.run_batch sim ~pi:[||] ~state:v110 ~faults in
  Alcotest.(check (array bool)) "good capture is 111" [| true; true; true |] r.Fault_sim.good.Fault_sim.capture;
  (match r.Fault_sim.outcomes.(0) with
  | Fault_sim.Capture_differs cap ->
      Alcotest.(check (array bool)) "D/0 responds 010" [| false; true; false |] cap
  | Fault_sim.Same | Fault_sim.Po_detected -> Alcotest.fail "D/0 must differ in capture");
  (match r.Fault_sim.outcomes.(1) with
  | Fault_sim.Same -> ()
  | Fault_sim.Po_detected | Fault_sim.Capture_differs _ -> Alcotest.fail "E-F/1 is redundant");
  (match r.Fault_sim.outcomes.(2) with
  | Fault_sim.Capture_differs cap ->
      Alcotest.(check (array bool)) "F/0 responds 011" [| false; true; true |] cap
  | Fault_sim.Same | Fault_sim.Po_detected -> Alcotest.fail "F/0 must differ in capture")

let test_po_detection () =
  (* s27 has a primary output; some fault must be Po_detected under some
     vector. *)
  let c = Tvs_circuits.S27.circuit () in
  let sim = Fault_sim.create c in
  let faults = Fault_gen.collapsed c in
  let rng = Rng.of_string "po-detect" in
  let found = ref false in
  for _ = 1 to 50 do
    if not !found then begin
      let pi = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
      let state = Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) in
      let r = Fault_sim.run_batch sim ~pi ~state ~faults in
      if
        Array.exists
          (function Fault_sim.Po_detected -> true | Fault_sim.Same | Fault_sim.Capture_differs _ -> false)
          r.Fault_sim.outcomes
      then found := true
    end
  done;
  Alcotest.(check bool) "some PO detection" true !found

let test_big_batch_chunks () =
  (* More faults than lanes: chunking must cover everything exactly once. *)
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let sim = Fault_sim.create c in
  let faults = Fault_gen.all c in
  Alcotest.(check bool) "more than one chunk" true (Array.length faults > 62);
  let pi = Array.make (Circuit.num_inputs c) true in
  let state = Array.make (Circuit.num_flops c) false in
  let batch = Fault_sim.detected_faults sim ~pi ~state faults in
  (* Cross-check against one-at-a-time simulation. *)
  Array.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "fault %d agrees" i)
        (Fault_sim.detects sim ~pi ~state f) batch.(i))
    faults

let test_run_per_state () =
  (* Hidden-fault scenario from Table 1 cycle 2: F/0's machine applies 000
     while the good machine applies 001; the faulty response must be 000
     against the good 010. *)
  let sim = Fault_sim.create fig1 in
  let f0 = Tvs_circuits.Fig1.paper_fault fig1 "F/0" in
  let r =
    Fault_sim.run_per_state sim ~pi:[||]
      ~good_state:[| false; false; true |]
      ~faults:[| f0 |]
      ~states:[| [| false; false; false |] |]
  in
  Alcotest.(check (array bool)) "good response 010" [| false; true; false |] r.Fault_sim.good.Fault_sim.capture;
  (match r.Fault_sim.outcomes.(0) with
  | Fault_sim.Capture_differs cap ->
      Alcotest.(check (array bool)) "faulty response 000" [| false; false; false |] cap
  | Fault_sim.Same | Fault_sim.Po_detected -> Alcotest.fail "F/0 must differ")

let test_per_state_length_check () =
  let sim = Fault_sim.create fig1 in
  let f0 = Tvs_circuits.Fig1.paper_fault fig1 "F/0" in
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore (Fault_sim.run_per_state sim ~pi:[||] ~good_state:[| false; false; false |] ~faults:[| f0 |] ~states:[||]);
       false
     with Invalid_argument _ -> true)

(* Every inner state is checked up front: one bit short used to index out
   of bounds mid-packing, and extra bits used to be ignored. *)
let test_per_state_inner_length_check () =
  let sim = Fault_sim.create fig1 in
  let f0 = Tvs_circuits.Fig1.paper_fault fig1 "F/0" in
  let good_state = [| false; false; true |] in
  let rejects label states =
    Alcotest.(check bool) label true
      (match Fault_sim.run_per_state sim ~pi:[||] ~good_state ~faults:[| f0; f0 |] ~states with
      | _ -> false
      | exception Invalid_argument msg ->
          String.length msg > 23 && String.sub msg 0 23 = "Fault_sim.run_per_state")
  in
  rejects "one bit short" [| good_state; [| false; false |] |];
  rejects "three bits long" [| good_state; Array.make 6 false |];
  Alcotest.(check bool) "context still exact" true
    ((Fault_sim.run_per_state sim ~pi:[||] ~good_state ~faults:[| f0 |]
        ~states:[| [| false; false; false |] |])
       .Fault_sim.outcomes.(0)
    <> Fault_sim.Same)

let qcheck_same_means_same =
  (* Property: an outcome of Same implies serial simulation agrees there is
     no detection. *)
  let c = Tvs_circuits.S27.circuit () in
  let sim = Fault_sim.create c in
  let faults = Fault_gen.collapsed c in
  QCheck.Test.make ~name:"batch outcomes agree with serial detection" ~count:50 QCheck.small_int
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let pi = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
      let state = Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) in
      let r = Fault_sim.run_batch sim ~pi ~state ~faults in
      Array.for_all
        (fun i ->
          let serial = Fault_sim.detects sim ~pi ~state faults.(i) in
          match r.Fault_sim.outcomes.(i) with
          | Fault_sim.Same -> not serial
          | Fault_sim.Po_detected | Fault_sim.Capture_differs _ -> serial)
        (Array.init (Array.length faults) (fun i -> i)))

let () =
  Alcotest.run "fault"
    [
      ( "model",
        [
          Alcotest.test_case "names" `Quick test_fault_names;
          Alcotest.test_case "equality and hashing" `Quick test_fault_equality;
        ] );
      ( "list",
        [
          Alcotest.test_case "fig1 count" `Quick test_all_fault_count_fig1;
          Alcotest.test_case "no duplicates" `Quick test_all_faults_distinct;
          Alcotest.test_case "collapsing shrinks" `Quick test_collapse_shrinks;
          Alcotest.test_case "inverter chain collapses fully" `Quick test_collapse_inverter_chain;
          Alcotest.test_case "no merge through a PO" `Quick test_collapse_no_merge_through_po;
          Alcotest.test_case "detection-equivalence sanity" `Quick test_collapse_detection_equivalent;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "fig1 outcomes" `Quick test_outcomes_fig1;
          Alcotest.test_case "PO detection" `Quick test_po_detection;
          Alcotest.test_case "chunked batches" `Quick test_big_batch_chunks;
          Alcotest.test_case "per-state (hidden faults)" `Quick test_run_per_state;
          Alcotest.test_case "per-state length check" `Quick test_per_state_length_check;
          Alcotest.test_case "per-state inner length check" `Quick
            test_per_state_inner_length_check;
          QCheck_alcotest.to_alcotest qcheck_same_means_same;
        ] );
    ]
