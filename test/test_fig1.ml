(* Ground truth: the paper's Section 3 worked example. Every row of Table 1
   (fault behaviour over four stitched cycles) is checked bit for bit, along
   with the caught/hidden/uncaught bookkeeping and the cost arithmetic. *)

module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Chain = Tvs_scan.Chain
module Cost = Tvs_scan.Cost
module Cycle = Tvs_core.Cycle
module Fig1 = Tvs_circuits.Fig1

let c = Fig1.circuit ()

let bits s = Array.init (String.length s) (fun i -> s.[i] = '1')
let show a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

(* Response of the (possibly faulty) machine to a given scan state. *)
let response fault state =
  match fault with
  | None -> snd (Parallel.run_single (Parallel.create c) ~pi:[||] ~state)
  | Some f -> (
      let r = Fault_sim.run_batch (Fault_sim.create c) ~pi:[||] ~state ~faults:[| f |] in
      match r.outcomes.(0) with
      | Fault_sim.Same | Fault_sim.Po_detected -> r.good.capture
      | Fault_sim.Capture_differs cap -> cap)

(* Replay the paper's schedule for one fault, returning the (TV, RP) pairs
   until the fault is caught (observation of two tail bits during the next
   shift), exactly as Table 1 tabulates them. *)
let replay fault_name =
  let fault = Fig1.paper_fault c fault_name in
  let rec go contents_g contents_f fresh_remaining acc =
    (* Observation of the previous responses happens while shifting. *)
    let fresh = match fresh_remaining with f :: _ -> f | [] -> [| false; false |] in
    let caught = Chain.emitted contents_g ~s:2 <> Chain.emitted contents_f ~s:2 in
    if caught || fresh_remaining = [] then List.rev acc
    else
      let applied_g, _ = Chain.shift contents_g ~fresh in
      let applied_f, _ = Chain.shift contents_f ~fresh in
      let rg = response None applied_g in
      let rf = response (Some fault) applied_f in
      go rg rf (List.tl fresh_remaining) ((show applied_f, show rf) :: acc)
  in
  let first = List.hd Fig1.vectors in
  let rg = response None first in
  let rf = response (Some fault) first in
  go rg rf (List.tl Fig1.fresh_bits) [ (show first, show rf) ]

let check_rows name expected () =
  let got = replay name in
  Alcotest.(check (list (pair string string))) name expected got

(* Expected (TV, RP) rows transcribed from Table 1. A fault's row stops once
   it is caught (blank cells in the paper). *)
let table1 =
  [
    ("F/0", [ ("110", "011"); ("000", "000") ]);
    ("F/1", [ ("110", "111"); ("001", "110"); ("101", "110") ]);
    ("D-F/1", [ ("110", "111"); ("001", "110"); ("101", "110") ]);
    ("E-F/1", [ ("110", "111"); ("001", "010"); ("100", "000"); ("010", "010") ]);
    ("D/0", [ ("110", "010") ]);
    ("D/1", [ ("110", "111"); ("001", "111") ]);
    ("B-D/1", [ ("110", "111"); ("001", "010"); ("100", "001") ]);
    ("A/1", [ ("110", "111"); ("001", "010"); ("100", "000"); ("010", "111") ]);
    ("B/0", [ ("110", "000") ]);
    ("B/1", [ ("110", "111"); ("001", "010"); ("100", "111") ]);
    ("E/0", [ ("110", "001") ]);
    ("B-E/0", [ ("110", "001") ]);
    ("C/0", [ ("110", "111"); ("001", "000") ]);
    ("E/1", [ ("110", "111"); ("001", "010"); ("100", "010") ]);
    ("E-b/0", [ ("110", "101") ]);
    ("E-b/1", [ ("110", "111"); ("001", "010"); ("100", "010") ]);
    ("D-c/0", [ ("110", "110") ]);
    (* Published-table erratum: the paper prints cycle-2 RP "010" for D-c/1,
       but its own fault-free row has D = 0 in cycle 2, so the stuck-at-1
       branch into cell c must capture 1 — response "011", caught one cycle
       earlier. See EXPERIMENTS.md. *)
    ("D-c/1", [ ("110", "111"); ("001", "011") ]);
  ]

let test_correct_row () =
  (* The fault-free row of Table 1: vectors and responses. *)
  let sim = Parallel.create c in
  let rec go state acc = function
    | [] -> List.rev acc
    | fresh :: rest ->
        let applied, _ = Chain.shift state ~fresh in
        let _, capture = Parallel.run_single sim ~pi:[||] ~state:applied in
        go capture ((show applied, show capture) :: acc) rest
  in
  let init = Array.make 3 false in
  let rows = go init [] Fig1.fresh_bits in
  Alcotest.(check (list (pair string string)))
    "fault-free behaviour"
    [ ("110", "111"); ("001", "010"); ("100", "000"); ("010", "010") ]
    rows

let faults_of_names names = Array.of_list (List.map (Fig1.paper_fault c) names)

(* Drive the Cycle machine through the paper's schedule and check the fault
   set evolution of Section 3. *)
let test_cycle_machine () =
  let faults = faults_of_names Fig1.table1_faults in
  let machine = Cycle.create c ~faults in
  let step fresh = ignore (Cycle.step machine ~pi:[||] ~fresh) in
  let counts () = (Cycle.num_caught machine, Cycle.num_hidden machine, Cycle.num_uncaught machine) in
  step (bits "110");
  Alcotest.(check (triple int int int)) "after cycle 1" (0, 7, 11) (counts ());
  step (bits "00");
  (* 6 hidden rather than the paper-implied 5: the D-c/1 erratum (see the
     table above) makes that fault pending after cycle 2. *)
  Alcotest.(check (triple int int int)) "after cycle 2" (6, 6, 6) (counts ());
  step (bits "10");
  Alcotest.(check (triple int int int)) "after cycle 3" (10, 6, 2) (counts ());
  step (bits "01");
  Alcotest.(check (triple int int int)) "after cycle 4" (16, 1, 1) (counts ());
  ignore (Cycle.flush machine ~full:false);
  Alcotest.(check (triple int int int)) "after final unload" (17, 0, 1) (counts ());
  (* The single uncaught fault is the redundant E-F/1. *)
  let uncaught = Cycle.uncaught_indices machine in
  let names = List.map (fun i -> Fault.name c faults.(i)) uncaught in
  Alcotest.(check (list string)) "redundant leftover" [ "E-F/1" ] names

let test_cost_arithmetic () =
  let schedule =
    {
      Cost.chain_len = 3;
      npi = 0;
      npo = 0;
      shifts = Fig1.shift_schedule;
      extra = 0;
      full_drain = false;
    }
  in
  Alcotest.(check int) "stitched shift cycles" 11 (Cost.time schedule);
  Alcotest.(check int) "stitched memory bits" 17 (Cost.memory schedule);
  Alcotest.(check int) "baseline shift cycles" 15 (Cost.baseline_time ~chain_len:3 ~nvec:4);
  Alcotest.(check int) "baseline memory bits" 24
    (Cost.baseline_memory ~chain_len:3 ~npi:0 ~npo:0 ~nvec:4)

let test_hidden_fault_f0 () =
  (* F/0 is the paper's canonical hidden fault: invisible in the two bits
     shifted out after cycle 1, caught through its mutated second vector. *)
  let faults = faults_of_names [ "F/0" ] in
  let machine = Cycle.create c ~faults in
  let hidden () =
    match (Cycle.export machine).Cycle.states.(0) with
    | Cycle.Fs_hidden _ -> true
    | Cycle.Fs_caught _ | Cycle.Fs_uncaught -> false
  in
  ignore (Cycle.step machine ~pi:[||] ~fresh:(bits "110"));
  Alcotest.(check bool) "hidden after cycle 1" true (hidden ());
  ignore (Cycle.step machine ~pi:[||] ~fresh:(bits "00"));
  Alcotest.(check bool) "still hidden after cycle 2" true (hidden ());
  ignore (Cycle.step machine ~pi:[||] ~fresh:(bits "10"));
  Alcotest.(check bool) "caught at cycle 3's shift" true
    (match (Cycle.export machine).Cycle.states.(0) with
    | Cycle.Fs_caught 3 -> true
    | Cycle.Fs_caught _ | Cycle.Fs_hidden _ | Cycle.Fs_uncaught -> false)

let () =
  let table_cases =
    List.map
      (fun (name, expected) -> Alcotest.test_case name `Quick (check_rows name expected))
      table1
  in
  Alcotest.run "fig1"
    [
      ("table1-correct", [ Alcotest.test_case "fault-free row" `Quick test_correct_row ]);
      ("table1-faults", table_cases);
      ( "fault-sets",
        [
          Alcotest.test_case "cycle machine evolution" `Quick test_cycle_machine;
          Alcotest.test_case "hidden fault F/0" `Quick test_hidden_fault_f0;
        ] );
      ("costs", [ Alcotest.test_case "paper arithmetic" `Quick test_cost_arithmetic ]);
    ]
