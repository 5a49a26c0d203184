(* Tests for the beyond-the-core extensions: MISR compaction (the aliasing
   the paper avoids), and static test-set stitching by reordering (the
   Section 2 prior art). *)

module Circuit = Tvs_netlist.Circuit
module Misr = Tvs_scan.Misr
module Static_stitch = Tvs_core.Static_stitch
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Podem = Tvs_atpg.Podem
module Cube = Tvs_atpg.Cube
module Baseline = Tvs_core.Baseline
module Rng = Tvs_util.Rng

(* --- MISR ------------------------------------------------------------- *)

let test_misr_zero_stays_zero () =
  let m = Misr.create ~width:8 ~taps:(Misr.default_taps ~width:8) in
  Misr.absorb_stream m [ Array.make 8 false; Array.make 8 false ];
  Alcotest.(check (array bool)) "zero in, zero state" (Array.make 8 false) (Misr.signature m)

let test_misr_single_bit_sensitivity () =
  (* Any single flipped input bit must change the signature (linearity: the
     difference signature of a one-bit error is never zero). *)
  let width = 8 in
  let base = List.init 6 (fun i -> Array.init 10 (fun j -> (i + j) mod 3 = 0)) in
  let base_sig = Misr.signature_of ~width base in
  List.iteri
    (fun cycle word ->
      Array.iteri
        (fun bit _ ->
          let mutated =
            List.mapi
              (fun c w ->
                if c = cycle then Array.mapi (fun b v -> if b = bit then not v else v) w else w)
              base
          in
          ignore word;
          let s = Misr.signature_of ~width mutated in
          Alcotest.(check bool)
            (Printf.sprintf "flip cycle %d bit %d changes signature" cycle bit)
            false (s = base_sig))
        word)
    base

let test_misr_aliasing_exists () =
  (* Two-bit errors can alias: an error injected at cycle t and its shifted
     copy cancel. Find one by search to document the phenomenon. *)
  let width = 4 in
  let base = List.init 8 (fun _ -> Array.make 4 false) in
  let base_sig = Misr.signature_of ~width base in
  let found = ref false in
  for c1 = 0 to 7 do
    for b1 = 0 to 3 do
      for c2 = 0 to 7 do
        for b2 = 0 to 3 do
          if ((c1, b1) < (c2, b2)) && not !found then begin
            let mutated =
              List.mapi
                (fun c w ->
                  Array.mapi
                    (fun b v ->
                      if (c = c1 && b = b1) || (c = c2 && b = b2) then not v else v)
                    w)
                base
            in
            if Misr.signature_of ~width mutated = base_sig then found := true
          end
        done
      done
    done
  done;
  Alcotest.(check bool) "a 4-bit MISR aliases some 2-bit error" true !found

let test_misr_deterministic () =
  let stream = List.init 5 (fun i -> Array.init 12 (fun j -> (i * j) mod 5 < 2)) in
  let a = Misr.signature_of ~width:12 stream in
  let b = Misr.signature_of ~width:12 stream in
  Alcotest.(check (array bool)) "same signature" a b

let test_misr_fold_wide_input () =
  (* Inputs wider than the register fold by XOR rather than truncate: a bit
     beyond the width must still matter. *)
  let width = 4 in
  let a = [ Array.make 9 false ] in
  let b = [ Array.init 9 (fun i -> i = 8) ] in
  Alcotest.(check bool) "bit 8 reaches the signature" false
    (Misr.signature_of ~width a = Misr.signature_of ~width b)

let test_misr_bad_args () =
  Alcotest.(check bool) "zero width rejected" true
    (try
       ignore (Misr.create ~width:0 ~taps:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tap out of range rejected" true
    (try
       ignore (Misr.create ~width:4 ~taps:[ 4 ]);
       false
     with Invalid_argument _ -> true)

let test_misr_lfsr_period () =
  (* With maximal-length taps and no data, a nonzero state must cycle
     through all 2^w - 1 nonzero states. *)
  let width = 5 in
  let m = Misr.create ~width ~taps:(Misr.default_taps ~width) in
  Misr.absorb m [| true |] (* seed state 10000-ish via data *);
  let seen = Hashtbl.create 64 in
  let zero = Array.make width false in
  let steps = ref 0 in
  let rec loop () =
    let s = Misr.signature m in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      incr steps;
      Misr.absorb m zero;
      loop ()
    end
  in
  loop ();
  Alcotest.(check int) "maximal period" ((1 lsl width) - 1) (Hashtbl.length seen)

let qcheck_misr_linearity =
  (* A MISR over GF(2) is linear: from the zero state,
     sig(x xor y) = sig(x) xor sig(y). This is the algebra behind aliasing
     analysis (an error stream aliases iff its own signature is zero). *)
  QCheck.Test.make ~name:"MISR is linear over GF(2)" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 10) (array_of_size (Gen.return 6) bool))
              (list_of_size Gen.(int_range 1 10) (array_of_size (Gen.return 6) bool)))
    (fun (x, y) ->
      (* Pad to equal length with zero words. *)
      let n = max (List.length x) (List.length y) in
      let pad l = l @ List.init (n - List.length l) (fun _ -> Array.make 6 false) in
      let x = pad x and y = pad y in
      let xy = List.map2 (fun a b -> Array.map2 (fun p q -> p <> q) a b) x y in
      let width = 8 in
      let s = Misr.signature_of ~width in
      s xy = Array.map2 ( <> ) (s x) (s y))

(* --- static stitching --------------------------------------------------- *)

let prep_s27 () =
  let c = Tvs_circuits.S27.circuit () in
  let faults = Fault_gen.collapsed c in
  let ctx = Podem.create c in
  let baseline = Baseline.run ~rng:(Rng.of_string "ext:baseline") ctx ~faults in
  (c, faults, baseline)

let test_static_order_is_permutation () =
  let c, _, baseline = prep_s27 () in
  let r = Static_stitch.reorder c ~rng:(Rng.of_string "st") ~cubes:baseline.Baseline.cubes in
  let sorted = Array.copy r.Static_stitch.order in
  Array.sort compare sorted;
  Alcotest.(check (array int))
    "permutation of the cube set"
    (Array.init (Array.length baseline.Baseline.cubes) (fun i -> i))
    sorted

let test_static_first_full_load () =
  let c, _, baseline = prep_s27 () in
  let r = Static_stitch.reorder c ~rng:(Rng.of_string "st2") ~cubes:baseline.Baseline.cubes in
  (match r.Static_stitch.shifts with
  | first :: rest ->
      Alcotest.(check int) "full first load" (Circuit.num_flops c) first;
      List.iter (fun s -> Alcotest.(check bool) "shift within chain" true (s <= Circuit.num_flops c)) rest
  | [] -> Alcotest.fail "empty schedule");
  Alcotest.(check int) "one shift per cube" (Array.length baseline.Baseline.cubes)
    (List.length r.Static_stitch.shifts)

let test_static_saves_stimulus () =
  let c, _, baseline = prep_s27 () in
  let r = Static_stitch.reorder c ~rng:(Rng.of_string "st3") ~cubes:baseline.Baseline.cubes in
  let n = Array.length baseline.Baseline.cubes in
  let full = n * Circuit.num_flops c in
  Alcotest.(check bool) "stimulus bits do not exceed full shifting" true
    (r.Static_stitch.stimulus_bits <= full);
  Alcotest.(check bool) "memory ratio <= 1" true (r.Static_stitch.memory_ratio <= 1.0);
  Alcotest.(check (float 0.0001)) "time unchanged (separate chains)" 1.0 r.Static_stitch.time_ratio

let test_static_preserves_coverage () =
  (* The reordered, refilled set must still detect every fault the cubes
     target: each cube's specified bits survive the overlap merge. *)
  let c, faults, baseline = prep_s27 () in
  let rng = Rng.of_string "st4" in
  let r = Static_stitch.reorder c ~rng ~cubes:baseline.Baseline.cubes in
  ignore r;
  (* Rebuild the applied vectors by replaying the same construction. *)
  let sim = Fault_sim.create c in
  let detected = Array.make (Array.length faults) false in
  (* Replay: reorder is deterministic for a fixed rng seed, so run it again
     and recompute applied vectors by simulation of the same schedule. *)
  let rng2 = Rng.of_string "st4" in
  let r2 = Static_stitch.reorder c ~rng:rng2 ~cubes:baseline.Baseline.cubes in
  Alcotest.(check bool) "deterministic" true (r.Static_stitch.order = r2.Static_stitch.order);
  (* Coverage check under the separate-chain (full observability) model:
     apply cubes in the new order with fresh random fill; the specified bits
     guarantee detection regardless of fill, so full-shift application in
     any order keeps coverage. *)
  Array.iter
    (fun idx ->
      let cube = baseline.Baseline.cubes.(idx) in
      let v = Cube.fill_random rng cube in
      Array.iteri
        (fun i hit -> if hit then detected.(i) <- true)
        (Fault_sim.detected_faults sim ~pi:v.Cube.pi ~state:v.Cube.scan faults))
    r.Static_stitch.order;
  let caught = Array.fold_left (fun n d -> if d then n + 1 else n) 0 detected in
  Alcotest.(check bool) "most faults still caught" true
    (caught >= Array.length faults - List.length baseline.Baseline.redundant
              - List.length baseline.Baseline.aborted - 2)

let test_static_rejects_empty () =
  let c, _, _ = prep_s27 () in
  Alcotest.(check bool) "empty set rejected" true
    (try
       ignore (Static_stitch.reorder c ~rng:(Rng.of_string "e") ~cubes:[||]);
       false
     with Invalid_argument _ -> true)

(* --- LFSR ----------------------------------------------------------------- *)

module Lfsr = Tvs_scan.Lfsr

let test_lfsr_maximal_periods () =
  List.iter
    (fun width ->
      Alcotest.(check bool) (Printf.sprintf "width %d maximal" width) true
        (Lfsr.period_is_maximal ~width))
    [ 3; 4; 5; 6; 7; 8 ]

let test_lfsr_deterministic () =
  let a = Lfsr.create ~seed:7 ~width:12 () in
  let b = Lfsr.create ~seed:7 ~width:12 () in
  Alcotest.(check (array bool)) "same stream" (Lfsr.next_vector a 64) (Lfsr.next_vector b 64)

let test_lfsr_zero_seed_escapes () =
  let t = Lfsr.create ~seed:0 ~width:8 () in
  let bits = Lfsr.next_vector t 32 in
  Alcotest.(check bool) "not stuck at zero" true (Array.exists (fun b -> b) bits)

let test_lfsr_balanced () =
  (* A maximal-length sequence is nearly balanced over a full period. *)
  let width = 8 in
  let t = Lfsr.create ~width () in
  let period = (1 lsl width) - 1 in
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (Lfsr.next_vector t period) in
  Alcotest.(check int) "2^(w-1) ones per period" (1 lsl (width - 1)) ones

(* --- compactor -------------------------------------------------------------- *)

module Compactor = Tvs_atpg.Compactor

let test_compactor_merge_shrinks () =
  let cube pi scan : Cube.t =
    {
      Cube.pi = Array.init (String.length pi) (fun i -> Tvs_logic.Ternary.of_char pi.[i]);
      scan = Array.init (String.length scan) (fun i -> Tvs_logic.Ternary.of_char scan.[i]);
    }
  in
  let cubes = [ cube "1XX" "X0"; cube "X0X" "X0"; cube "0XX" "1X" ] in
  let merged = Compactor.merge_cubes cubes in
  Alcotest.(check int) "three cubes merge to two" 2 (List.length merged)

(* --- diagnosis ---------------------------------------------------------------- *)

module Diagnosis = Tvs_fault.Diagnosis

let test_diagnosis_roundtrip () =
  let c, faults, baseline = prep_s27 () in
  let sim = Parallel.create c in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) baseline.Baseline.vectors
  in
  let dict = Diagnosis.build sim ~faults ~tests in
  Alcotest.(check bool) "most faults detected" true
    (Diagnosis.num_detected dict > Array.length faults / 2);
  Alcotest.(check bool) "resolution >= 1" true (Diagnosis.resolution dict >= 1.0);
  (* Every fault's own response diagnoses back to a candidate set that
     contains it (or reads as defect-free when undetected). *)
  Array.iter
    (fun f ->
      let observed = Diagnosis.respond sim ~tests ~fault:f () in
      match Diagnosis.diagnose dict ~observed with
      | Diagnosis.Candidates cands ->
          Alcotest.(check bool) "fault among its candidates" true
            (List.exists (Tvs_fault.Fault.equal f) cands)
      | Diagnosis.No_defect -> () (* undetected by this test set *)
      | Diagnosis.Unknown_defect -> Alcotest.fail "dictionary entry must exist")
    faults

let test_diagnosis_good_machine () =
  let c, faults, baseline = prep_s27 () in
  let sim = Parallel.create c in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) baseline.Baseline.vectors
  in
  let dict = Diagnosis.build sim ~faults ~tests in
  let observed = Diagnosis.respond sim ~tests () in
  Alcotest.(check bool) "clean machine diagnosed clean" true
    (Diagnosis.diagnose dict ~observed = Diagnosis.No_defect)

let test_diagnosis_unknown_defect () =
  let c, faults, baseline = prep_s27 () in
  let sim = Parallel.create c in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) baseline.Baseline.vectors
  in
  let dict = Diagnosis.build sim ~faults ~tests in
  (* An observation matching no modelled fault: flip every bit of the good
     response. *)
  let observed = List.map (Array.map not) (Diagnosis.respond sim ~tests ()) in
  (match Diagnosis.diagnose dict ~observed with
  | Diagnosis.Unknown_defect -> ()
  | Diagnosis.No_defect | Diagnosis.Candidates _ ->
      Alcotest.fail "all-bits-flipped should match no single stuck-at fault")

(* --- broadcast scan ----------------------------------------------------- *)

module Broadcast_scan = Tvs_core.Broadcast_scan

let test_broadcast_two_modes () =
  let c, faults, baseline = prep_s27 () in
  let r =
    Broadcast_scan.run c ~rng:(Rng.of_string "bc") ~partitions:3 ~faults
      ~fallback:baseline.Baseline.vectors ()
  in
  Alcotest.(check int) "partition count echoed" 3 r.Broadcast_scan.partitions;
  Alcotest.(check bool) "some parallel vectors" true (r.Broadcast_scan.parallel_vectors > 0);
  Alcotest.(check bool) "ratios at or below 1" true
    (r.Broadcast_scan.memory_ratio <= 1.0 && r.Broadcast_scan.time_ratio <= 1.0)

let test_broadcast_full_coverage_via_fallback () =
  let c, faults, baseline = prep_s27 () in
  let r =
    Broadcast_scan.run c ~rng:(Rng.of_string "bc2") ~partitions:3 ~faults
      ~fallback:baseline.Baseline.vectors ()
  in
  (* The fallback set covers everything it can; broadcast must not lose it. *)
  let reachable =
    let sim = Fault_sim.create c in
    let detected = Array.make (Array.length faults) false in
    Array.iter
      (fun (v : Cube.vector) ->
        Array.iteri
          (fun i hit -> if hit then detected.(i) <- true)
          (Fault_sim.detected_faults sim ~pi:v.Cube.pi ~state:v.Cube.scan faults))
      baseline.Baseline.vectors;
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 detected
  in
  Alcotest.(check (float 0.0001)) "coverage equals fallback's reach"
    (float_of_int reachable /. float_of_int (Array.length faults))
    r.Broadcast_scan.coverage

let test_broadcast_one_partition_degenerates () =
  (* One partition = ordinary serial scan: the broadcast phase still runs
     but each "broadcast" is a full-width random vector. *)
  let c, faults, baseline = prep_s27 () in
  let r =
    Broadcast_scan.run c ~rng:(Rng.of_string "bc3") ~partitions:1 ~faults
      ~fallback:baseline.Baseline.vectors ()
  in
  Alcotest.(check bool) "runs" true (r.Broadcast_scan.parallel_vectors >= 0)

let test_broadcast_rejects_bad_partitions () =
  let c, faults, baseline = prep_s27 () in
  Alcotest.(check bool) "non-positive rejected" true
    (try
       ignore
         (Broadcast_scan.run c ~rng:(Rng.of_string "bc4") ~partitions:0 ~faults
            ~fallback:baseline.Baseline.vectors ());
       false
     with Invalid_argument _ -> true)

(* --- harness studies ----------------------------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_misr_study_renders () =
  let out = Tvs_harness.Experiments.misr_study ~circuit:"s444" () in
  Alcotest.(check bool) "mentions exact observation" true
    (contains ~needle:"exact observation" out)

let () =
  Alcotest.run "extensions"
    [
      ( "misr",
        [
          Alcotest.test_case "zero fixpoint" `Quick test_misr_zero_stays_zero;
          Alcotest.test_case "single-bit sensitivity" `Quick test_misr_single_bit_sensitivity;
          Alcotest.test_case "aliasing exists" `Quick test_misr_aliasing_exists;
          Alcotest.test_case "deterministic" `Quick test_misr_deterministic;
          Alcotest.test_case "wide inputs fold" `Quick test_misr_fold_wide_input;
          Alcotest.test_case "argument validation" `Quick test_misr_bad_args;
          Alcotest.test_case "maximal LFSR period" `Quick test_misr_lfsr_period;
          QCheck_alcotest.to_alcotest qcheck_misr_linearity;
        ] );
      ( "static-stitch",
        [
          Alcotest.test_case "order is a permutation" `Quick test_static_order_is_permutation;
          Alcotest.test_case "first load full" `Quick test_static_first_full_load;
          Alcotest.test_case "stimulus savings" `Quick test_static_saves_stimulus;
          Alcotest.test_case "coverage preserved" `Quick test_static_preserves_coverage;
          Alcotest.test_case "empty set rejected" `Quick test_static_rejects_empty;
        ] );
      ( "lfsr",
        [
          Alcotest.test_case "maximal periods" `Quick test_lfsr_maximal_periods;
          Alcotest.test_case "deterministic" `Quick test_lfsr_deterministic;
          Alcotest.test_case "zero-seed lockup avoided" `Quick test_lfsr_zero_seed_escapes;
          Alcotest.test_case "balanced sequence" `Quick test_lfsr_balanced;
        ] );
      ( "compactor",
        [
          Alcotest.test_case "cube merging" `Quick test_compactor_merge_shrinks;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "roundtrip" `Quick test_diagnosis_roundtrip;
          Alcotest.test_case "good machine" `Quick test_diagnosis_good_machine;
          Alcotest.test_case "unknown defect" `Quick test_diagnosis_unknown_defect;
        ] );
      ( "broadcast-scan",
        [
          Alcotest.test_case "two modes" `Quick test_broadcast_two_modes;
          Alcotest.test_case "coverage via fallback" `Quick test_broadcast_full_coverage_via_fallback;
          Alcotest.test_case "single partition" `Quick test_broadcast_one_partition_degenerates;
          Alcotest.test_case "bad partitions rejected" `Quick test_broadcast_rejects_bad_partitions;
        ] );
      ("studies", [ Alcotest.test_case "misr study renders" `Quick test_misr_study_renders ]);
    ]
