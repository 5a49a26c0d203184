(* Unit tests for Tvs_circuits: the Figure 1 reconstruction, the embedded
   s27, the benchmark profiles and the synthetic generator. *)

module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Stats = Tvs_netlist.Stats
module Validate = Tvs_netlist.Validate
module Bench_format = Tvs_netlist.Bench_format
module Fig1 = Tvs_circuits.Fig1
module Profiles = Tvs_circuits.Profiles
module Synth = Tvs_circuits.Synth

(* --- fig1 ------------------------------------------------------------- *)

let test_fig1_structure () =
  let c = Fig1.circuit () in
  Alcotest.(check int) "no PIs" 0 (Circuit.num_inputs c);
  Alcotest.(check int) "no POs" 0 (Circuit.num_outputs c);
  Alcotest.(check int) "three cells" 3 (Circuit.num_flops c);
  (* D = AND(A, B), E = OR(B, C), F = AND(D, E). *)
  (match Circuit.driver c (Circuit.find_net c "D") with
  | Circuit.Gate_node (Gate.And, _) -> ()
  | _ -> Alcotest.fail "D must be an AND");
  (match Circuit.driver c (Circuit.find_net c "E") with
  | Circuit.Gate_node (Gate.Or, _) -> ()
  | _ -> Alcotest.fail "E must be an OR");
  (* Cell captures: a <- F, b <- E, c <- D. *)
  let cell q = Circuit.driver c (Circuit.find_net c q) in
  (match cell "A" with
  | Circuit.Flip_flop d -> Alcotest.(check string) "a captures F" "F" (Circuit.net_name c d)
  | _ -> Alcotest.fail "A is a cell");
  (match cell "C" with
  | Circuit.Flip_flop d -> Alcotest.(check string) "c captures D" "D" (Circuit.net_name c d)
  | _ -> Alcotest.fail "C is a cell")

let test_fig1_fault_parsing () =
  let c = Fig1.circuit () in
  List.iter (fun n -> ignore (Fig1.paper_fault c n)) Fig1.table1_faults;
  Alcotest.(check int) "18 faults named" 18 (List.length Fig1.table1_faults);
  Alcotest.(check bool) "unknown fault rejected" true
    (try
       ignore (Fig1.paper_fault c "Z/0");
       false
     with _ -> true)

let test_fig1_schedule_consistent () =
  Alcotest.(check int) "4 vectors" 4 (List.length Fig1.vectors);
  Alcotest.(check int) "4 fresh groups" 4 (List.length Fig1.fresh_bits);
  Alcotest.(check (list int)) "shift schedule" [ 3; 2; 2; 2 ]
    (List.map Array.length Fig1.fresh_bits);
  (* The fresh bits regenerate the paper's vectors through chain shifting. *)
  let state = ref (Array.make 3 false) in
  List.iter2
    (fun fresh expected ->
      let applied, _ = Tvs_scan.Chain.shift !state ~fresh in
      Alcotest.(check (array bool)) "vector reconstructed" expected applied;
      (* Next state is the response; recompute via simulation. *)
      let sim = Tvs_sim.Parallel.create (Fig1.circuit ()) in
      let _, capture = Tvs_sim.Parallel.run_single sim ~pi:[||] ~state:applied in
      state := capture)
    Fig1.fresh_bits Fig1.vectors

(* --- s27 --------------------------------------------------------------- *)

let test_s27_shape () =
  let c = Tvs_circuits.S27.circuit () in
  let s = Stats.compute c in
  Alcotest.(check int) "PI" 4 s.Stats.num_inputs;
  Alcotest.(check int) "PO" 1 s.Stats.num_outputs;
  Alcotest.(check int) "FF" 3 s.Stats.num_flops;
  Alcotest.(check int) "gates" 10 s.Stats.num_gates;
  Alcotest.(check bool) "clean" true (Validate.is_clean c)

(* --- profiles ----------------------------------------------------------- *)

let test_profiles_tables () =
  Alcotest.(check int) "table 2 rows" 8 (List.length Profiles.table2_circuits);
  Alcotest.(check int) "table 5 rows" 7 (List.length Profiles.table5_circuits);
  let p = Profiles.find "s9234" in
  Alcotest.(check int) "s9234 scan length" 228 p.Profiles.nff;
  Alcotest.(check int) "s9234 PIs" 19 p.Profiles.npi;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Profiles.find "s0");
       false
     with Not_found -> true)

let test_profiles_scan_lengths_match_paper () =
  (* The "shift x/L" denominators of Table 2. *)
  List.iter
    (fun (name, nff) ->
      Alcotest.(check int) (name ^ " scan length") nff (Profiles.find name).Profiles.nff)
    [
      ("s444", 21); ("s526", 21); ("s641", 19); ("s953", 29); ("s1196", 18); ("s1423", 74);
      ("s5378", 179); ("s9234", 228); ("s13207", 669); ("s15850", 597); ("s35932", 1728);
      ("s38417", 1636); ("s38584", 1452);
    ]

let test_profile_scale () =
  let p = Profiles.find "s35932" in
  let half = Profiles.scale p 0.5 in
  Alcotest.(check int) "FF halves" 864 half.Profiles.nff;
  Alcotest.(check int) "PI kept" p.Profiles.npi half.Profiles.npi;
  Alcotest.(check string) "name notes scale" "s35932@0.5" half.Profiles.name;
  let same = Profiles.scale p 1.0 in
  Alcotest.(check string) "unit scale is identity" "s35932" same.Profiles.name

(* --- synth --------------------------------------------------------------- *)

let test_synth_matches_profile () =
  List.iter
    (fun name ->
      let p = Profiles.find name in
      let c = Synth.generate p in
      Alcotest.(check int) (name ^ " PI") p.Profiles.npi (Circuit.num_inputs c);
      Alcotest.(check int) (name ^ " PO") p.Profiles.npo (Circuit.num_outputs c);
      Alcotest.(check int) (name ^ " FF") p.Profiles.nff (Circuit.num_flops c);
      let s = Stats.compute c in
      (* The parity-collapse tree may add a few gates beyond the request. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s gates %d ~ %d" name s.Stats.num_gates p.Profiles.ngates)
        true
        (s.Stats.num_gates >= p.Profiles.ngates && s.Stats.num_gates < p.Profiles.ngates * 2))
    [ "s444"; "s641"; "s953"; "s1196" ]

let test_synth_deterministic () =
  let a = Bench_format.to_string (Synth.generate_named "s444") in
  let b = Bench_format.to_string (Synth.generate_named "s444") in
  Alcotest.(check bool) "identical netlists" true (a = b)

let test_synth_no_dangling () =
  let c = Synth.generate_named "s526" in
  let dangling =
    List.filter (function Validate.Dangling_net _ -> true | _ -> false) (Validate.check c)
  in
  Alcotest.(check int) "no dangling nets" 0 (List.length dangling)

let test_synth_acyclic_and_consuming () =
  let c = Synth.generate_named "s641" in
  (* topo_order would have raised on a cycle at build time; recompute depth
     to exercise it. *)
  Alcotest.(check bool) "positive depth" true (Circuit.depth c > 0);
  (* Every PI feeds something. *)
  Array.iter
    (fun pi ->
      Alcotest.(check bool)
        (Circuit.net_name c pi ^ " consumed")
        true
        (Array.length (Circuit.fanout c pi) > 0))
    (Circuit.inputs c)

let test_synth_styles_differ () =
  (* Shallow circuits must be shallower than Deep ones of similar size. *)
  let shallow =
    Synth.generate { Profiles.name = "x-shallow"; npi = 10; npo = 10; nff = 30; ngates = 300; style = Profiles.Shallow }
  in
  let deep =
    Synth.generate { Profiles.name = "x-deep"; npi = 10; npo = 10; nff = 30; ngates = 300; style = Profiles.Deep }
  in
  Alcotest.(check bool)
    (Printf.sprintf "depth(shallow)=%d < depth(deep)=%d" (Circuit.depth shallow) (Circuit.depth deep))
    true
    (Circuit.depth shallow < Circuit.depth deep)

let test_synth_scaled_runs () =
  let c = Synth.generate (Profiles.scale (Profiles.find "s13207") 0.1) in
  Alcotest.(check int) "scaled FF count" 67 (Circuit.num_flops c);
  Alcotest.(check bool) "builds and levelizes" true (Circuit.depth c >= 0)

(* Every bundled profile's netlist, its scan-inserted form and its .bench
   round trip keep the digests in golden/netlist_digests.txt: cache keys and
   checkpoints are keyed on them. *)
let test_netlist_digests_golden () =
  let hex c = Tvs_store.Digest.to_hex (Tvs_store.Digest.circuit c) in
  let ic = open_in "golden/netlist_digests.txt" in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let seen =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ spec; synth; scan; bench ] when spec.[0] <> '#' ->
            let name, scale =
              match String.split_on_char '@' spec with
              | [ name; scale ] -> (name, float_of_string scale)
              | _ -> (spec, 1.0)
            in
            let c = Synth.generate (Profiles.scale (Profiles.find name) scale) in
            Alcotest.(check string) (spec ^ " name") spec (Circuit.name c);
            Alcotest.(check string) (spec ^ " Synth.generate") synth (hex c);
            Alcotest.(check string)
              (spec ^ " Scan_insert.insert") scan
              (hex (Tvs_netlist.Scan_insert.insert c).Tvs_netlist.Scan_insert.circuit);
            Alcotest.(check string)
              (spec ^ " .bench round trip") bench
              (hex (Bench_format.parse_string ~name:spec (Bench_format.to_string c)));
            Some spec
        | _ -> None)
      lines
  in
  List.iter
    (fun (p : Profiles.t) ->
      Alcotest.(check bool) (p.name ^ " has a golden line") true (List.mem p.name seen))
    Profiles.all

let () =
  Alcotest.run "circuits"
    [
      ( "fig1",
        [
          Alcotest.test_case "structure" `Quick test_fig1_structure;
          Alcotest.test_case "fault names" `Quick test_fig1_fault_parsing;
          Alcotest.test_case "schedule reconstructs vectors" `Quick test_fig1_schedule_consistent;
        ] );
      ("s27", [ Alcotest.test_case "shape" `Quick test_s27_shape ]);
      ( "profiles",
        [
          Alcotest.test_case "table membership" `Quick test_profiles_tables;
          Alcotest.test_case "scan lengths match the paper" `Quick test_profiles_scan_lengths_match_paper;
          Alcotest.test_case "scaling" `Quick test_profile_scale;
        ] );
      ( "synth",
        [
          Alcotest.test_case "matches profile" `Quick test_synth_matches_profile;
          Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
          Alcotest.test_case "no dangling nets" `Quick test_synth_no_dangling;
          Alcotest.test_case "acyclic, all PIs used" `Quick test_synth_acyclic_and_consuming;
          Alcotest.test_case "styles shape depth" `Quick test_synth_styles_differ;
          Alcotest.test_case "scaled profiles run" `Quick test_synth_scaled_runs;
          Alcotest.test_case "netlist digests match the golden" `Quick test_netlist_digests_golden;
        ] );
    ]
