(* The test-point-insertion subsystem: candidate mining off the lint risk
   table, the netlist transform (observe cells, PO taps, control points),
   the greedy study's determinism/cache/conversion guarantees, the lint
   shift sweep, the report schema bump, and the Verilog round-trip of
   TPI-modified netlists. *)

module Circuit = Tvs_netlist.Circuit
module Bench_format = Tvs_netlist.Bench_format
module Scan_insert = Tvs_netlist.Scan_insert
module Gate = Tvs_netlist.Gate
module Synth = Tvs_circuits.Synth
module Profiles = Tvs_circuits.Profiles
module Scan_lint = Tvs_lint.Scan_lint
module Lint = Tvs_lint.Lint
module Diagnostic = Tvs_lint.Diagnostic
module Candidate = Tvs_tpi.Candidate
module Transform = Tvs_tpi.Transform
module Tpi = Tvs_tpi.Tpi
module Experiments = Tvs_harness.Experiments
module Cache = Tvs_store.Cache
module Emitter = Tvs_verilog.Emitter
module Frontend = Tvs_verilog.Frontend
module Json = Tvs_obs.Json
module Report = Tvs_obs.Report
module Wire = Tvs_util.Wire

let s27 () = Tvs_circuits.S27.circuit ()
let s444 () = Synth.generate_named "s444"

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "tvs-tpi-test-%d-%d" (Unix.getpid ()) !n)
    in
    d

(* --- candidate mining -------------------------------------------------- *)

let test_mine_ranked () =
  let c = s444 () in
  let cands = Candidate.mine c in
  Alcotest.(check bool) "mining finds candidates on s444" true (cands <> []);
  (* Ranked by score, descending; every target is a real net. *)
  let rec sorted = function
    | (a : Candidate.t) :: (b : Candidate.t) :: rest -> a.score >= b.score && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "score-descending" true (sorted cands);
  List.iter
    (fun (cand : Candidate.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "target %s exists" cand.net)
        true
        (Circuit.find_net_opt c cand.net <> None))
    cands;
  (* Default mining proposes observe cells only. *)
  Alcotest.(check bool) "observe cells only by default" true
    (List.for_all (fun (x : Candidate.t) -> x.kind = Candidate.Observe_cell) cands);
  (* The limit truncates the ranking, keeping the prefix. *)
  let top = Candidate.mine ~limit:3 c in
  Alcotest.(check int) "limit respected" 3 (List.length top);
  Alcotest.(check bool) "limit keeps the ranking prefix" true
    (top = List.filteri (fun i _ -> i < 3) cands);
  (* Optional kinds appear only when asked for. *)
  let with_extras = Candidate.mine ~po_taps:true ~controls:true c in
  Alcotest.(check bool) "po taps mined on demand" true
    (List.exists (fun (x : Candidate.t) -> x.kind = Candidate.Observe_po) with_extras);
  Alcotest.(check bool) "control points mined on demand" true
    (List.exists
       (fun (x : Candidate.t) ->
         x.kind = Candidate.Control_one || x.kind = Candidate.Control_zero)
       with_extras);
  (* Mining is deterministic. *)
  Alcotest.(check bool) "deterministic" true (Candidate.mine c = Candidate.mine c)

(* --- the netlist transform --------------------------------------------- *)

let obs_cand net : Candidate.t =
  { kind = Candidate.Observe_cell; net; score = 0; hits = 0; dmem = 2; dtime = 2 }

let test_transform_observe () =
  let c = s27 () in
  let c' = Transform.apply c [ obs_cand "G10" ] in
  Alcotest.(check int) "chain extended by one" (Circuit.num_flops c + 1) (Circuit.num_flops c');
  Alcotest.(check int) "inputs unchanged" (Circuit.num_inputs c) (Circuit.num_inputs c');
  Alcotest.(check int) "outputs unchanged" (Circuit.num_outputs c) (Circuit.num_outputs c');
  (* The observe cell is the chain tail, in declaration order. *)
  let chain = Circuit.flops c' in
  let tail = chain.(Array.length chain - 1) in
  Alcotest.(check string) "observe cell at the chain tail" "tpi_obs_G10"
    (Circuit.net_name c' tail);
  (* Original net names survive unchanged. *)
  for net = 0 to Circuit.num_nets c - 1 do
    let nm = Circuit.net_name c net in
    if Circuit.find_net_opt c' nm = None then
      Alcotest.failf "original net %s lost by the transform" nm
  done;
  (* Deterministic: applying twice gives digest-identical circuits. *)
  let d x = Tvs_store.Digest.to_hex (Tvs_store.Digest.circuit x) in
  Alcotest.(check string) "digest-stable" (d c') (d (Transform.apply c [ obs_cand "G10" ]))

let test_transform_po_tap_and_controls () =
  let c = s27 () in
  let cands : Candidate.t list =
    [
      { kind = Candidate.Observe_po; net = "G10"; score = 0; hits = 0; dmem = 1; dtime = 0 };
      { kind = Candidate.Control_one; net = "G11"; score = 0; hits = 0; dmem = 1; dtime = 0 };
      { kind = Candidate.Control_zero; net = "G8"; score = 0; hits = 0; dmem = 1; dtime = 0 };
    ]
  in
  let c' = Transform.apply c cands in
  Alcotest.(check int) "po tap adds one output" (Circuit.num_outputs c + 1)
    (Circuit.num_outputs c');
  Alcotest.(check int) "two control points add two inputs" (Circuit.num_inputs c + 2)
    (Circuit.num_inputs c');
  Alcotest.(check int) "chain unchanged" (Circuit.num_flops c) (Circuit.num_flops c');
  (* The force-1 control is an OR of the original driver and the new PI. *)
  let g = Circuit.find_net c' "tpi_ctlg_G11" in
  (match Circuit.driver c' g with
  | Circuit.Gate_node (Gate.Or, ins) ->
      let names = Array.map (Circuit.net_name c') ins in
      Alcotest.(check bool) "or reads the original driver and the control pi" true
        (Array.exists (fun n -> n = "G11") names
        && Array.exists (fun n -> n = "tpi_ctl_G11") names)
  | _ -> Alcotest.fail "force-1 control is not an OR gate");
  (* The force-0 control is an AND with the inverted PI. *)
  (match Circuit.driver c' (Circuit.find_net c' "tpi_ctlg_G8") with
  | Circuit.Gate_node (Gate.And, _) -> ()
  | _ -> Alcotest.fail "force-0 control is not an AND gate")

let test_transform_rejects () =
  let c = s27 () in
  let raises f =
    match f () with
    | exception Circuit.Build_error _ -> true
    | (_ : Circuit.t) -> false
  in
  Alcotest.(check bool) "unknown target rejected" true
    (raises (fun () -> Transform.apply c [ obs_cand "no_such_net" ]));
  Alcotest.(check bool) "duplicate (kind, net) rejected" true
    (raises (fun () -> Transform.apply c [ obs_cand "G10"; obs_cand "G10" ]));
  let c' = Transform.apply c [ obs_cand "G10" ] in
  Alcotest.(check bool) "reserved prefix rejected on re-application" true
    (raises (fun () -> Transform.apply c' [ obs_cand "G11" ]))

(* --- scan integrity and the risk contract (satellite 3) ----------------- *)

(* Scan insertion on a TPI-modified netlist: the inserted chain (original
   flops then observe cells, declaration order) passes the S001-S003
   integrity rules — no broken entries, duplicates or missing cells. *)
let test_integrity_preserved () =
  List.iter
    (fun c ->
      let cands = Candidate.mine ~limit:2 c in
      let c' = Transform.apply c cands in
      let inserted = (Scan_insert.insert c').Scan_insert.circuit in
      List.iter
        (fun (d : Diagnostic.t) ->
          match d.rule with
          | "TVS-S001" | "TVS-S002" | "TVS-S003" ->
              Alcotest.failf "%s violated after scan insertion + TPI: %s" d.rule d.message
          | _ -> ())
        (Scan_lint.integrity c');
      Alcotest.(check (list string)) "inserted netlist chain is integral" []
        (List.filter_map
           (fun (d : Diagnostic.t) ->
             match d.rule with
             | "TVS-S001" | "TVS-S002" | "TVS-S003" -> Some d.message
             | _ -> None)
           (Scan_lint.integrity inserted)))
    [ s27 (); s444 () ]

(* The matched-emitted-window contract (DESIGN.md §13): with k observe
   cells appended, the risk table of the modified circuit at shift s + k
   shows every targeted position's risk strictly decreased, and no
   original position's risk increased. *)
let test_risk_strictly_decreases () =
  List.iter
    (fun (c, s) ->
      let cands = Candidate.mine ~shift:s ~limit:2 c in
      Alcotest.(check bool) "mining found candidates" true (cands <> []);
      let targets = List.map (fun (x : Candidate.t) -> Circuit.find_net c x.net) cands in
      let excl = Scan_lint.exclusive_nets ~s c in
      let c' = Transform.apply c cands in
      let k = Transform.observe_cells cands in
      let before = Scan_lint.risk_table ~s c in
      let after = Scan_lint.risk_table ~s:(s + k) c' in
      Array.iteri
        (fun i (row : Scan_lint.risk_row) ->
          let row' = after.(i) in
          Alcotest.(check string) "position keeps its cell" row.cell row'.cell;
          if not row.emitted then begin
            Alcotest.(check bool) "original emitted cut preserved" row.emitted row'.emitted;
            if row'.risk > row.risk then
              Alcotest.failf "position %d (%s): risk rose %d -> %d" i row.cell row.risk
                row'.risk;
            (* Targeted = this position's exclusive support holds a tapped
               net; those must strictly improve. *)
            if List.exists (fun t -> List.mem t excl.(i)) targets && row'.risk >= row.risk
            then
              Alcotest.failf "targeted position %d (%s): risk %d not strictly below %d" i
                row.cell row'.risk row.risk
          end)
        before;
      (* Every appended observe cell sits in the emitted window: risk 0. *)
      for i = Array.length before to Array.length after - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "observe cell %s emitted" after.(i).Scan_lint.cell)
          true after.(i).Scan_lint.emitted
      done)
    [ (s27 (), 1); (s444 (), 5) ]

(* --- the study ---------------------------------------------------------- *)

let test_study_converts () =
  (* The acceptance bar: on both bundled circuits a small study converts at
     least one statically hidden fault, and the dynamic replay confirms at
     least one conversion is caught by the final circuit's own test set. *)
  List.iter
    (fun (c, points) ->
      let r = Tpi.run ~options:{ Tpi.default_options with Tpi.points } c in
      Alcotest.(check bool) "selected at least one point" true (r.Tpi.points <> []);
      Alcotest.(check bool) "converted at least one hidden net" true (r.Tpi.converted <> []);
      Alcotest.(check int) "two stem faults per converted net"
        (2 * List.length r.Tpi.converted)
        r.Tpi.converted_faults;
      Alcotest.(check bool) "at least one conversion caught" true (r.Tpi.caught >= 1);
      Alcotest.(check bool) "caught within bounds" true (r.Tpi.caught <= r.Tpi.converted_faults);
      (* Per-point deltas chain from base to final. *)
      let final = Tpi.final_summary r in
      let last = List.nth r.Tpi.points (List.length r.Tpi.points - 1) in
      Alcotest.(check bool) "final summary is the last point's" true
        (final = last.Tpi.summary))
    [ (s27 (), 2); (s444 (), 3) ]

let test_study_deterministic () =
  let ascii jobs =
    Tvs_util.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Tvs_util.Pool.set_default_jobs 1)
      (fun () -> Tpi.to_ascii (Tpi.run (s27 ())))
  in
  Alcotest.(check string) "study is jobs-invariant" (ascii 1) (ascii 4)

let test_study_cached () =
  let dir = fresh_dir () in
  let cache = Result.get_ok (Cache.open_dir dir) in
  Cache.install (Some cache);
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      let c = s27 () in
      let r1 = Tpi.run c in
      Alcotest.(check bool) "first run computes" false r1.Tpi.cached;
      Alcotest.(check bool) "study stored under TPIS" true
        (Sys.file_exists
           (Cache.entry_path cache ~kind:Tpi.study_kind ~key:(Tpi.study_key c)));
      let r2 = Tpi.run c in
      Alcotest.(check bool) "repeat replays" true r2.Tpi.cached;
      Alcotest.(check bool) "cached study equals the computed one" true
        ({ r2 with Tpi.cached = false } = r1);
      Alcotest.(check string) "cached rendering byte-identical" (Tpi.to_ascii r1)
        (Tpi.to_ascii r2))

let test_study_rejects_combinational () =
  let b = Circuit.Builder.create "comb" in
  let a = Circuit.Builder.input b "a" in
  Circuit.Builder.mark_output b (Circuit.Builder.gate b ~name:"y" Gate.Not [ a ]);
  let c = Circuit.Builder.finish b in
  match Tpi.run c with
  | exception Circuit.Build_error _ -> ()
  | (_ : Tpi.result) -> Alcotest.fail "combinational circuit accepted"

let test_result_codec () =
  let r = Tpi.run (s27 ()) in
  let w = Wire.writer () in
  Tpi.encode_result w r;
  let r' = Tpi.decode_result (Wire.reader (Wire.contents w)) in
  Alcotest.(check bool) "wire round-trip preserves the result" true (r = r');
  (* Truncated payloads raise Wire.Error, never a crash. *)
  let bytes = Wire.contents w in
  match Tpi.decode_result (Wire.reader (String.sub bytes 0 (String.length bytes / 2))) with
  | exception Wire.Error _ -> ()
  | (_ : Tpi.result) -> Alcotest.fail "truncated payload decoded"

let test_study_json () =
  let r = Tpi.run (s27 ()) in
  let doc =
    match Json.parse (Tpi.to_json_string r) with
    | Ok d -> d
    | Error m -> Alcotest.failf "tpi json does not re-parse: %s" m
  in
  Alcotest.(check (option bool)) "schema stamped" (Some true)
    (Option.map (fun j -> j = Json.Int Tpi.schema_version) (Json.member "schema" doc));
  List.iter
    (fun k ->
      if Json.member k doc = None then Alcotest.failf "member %S missing from tpi json" k)
    [
      "circuit"; "chain_len"; "shift"; "candidates"; "base"; "points"; "final"; "converted";
      "caught"; "converted_faults";
    ]

(* --- the lint shift sweep (satellite 1) ---------------------------------- *)

let test_lint_sweep () =
  let options = { Lint.default_options with Lint.sat_faults = 0; sweep = [ 2; 3; 2; 99 ] } in
  let r = Lint.run ~options (s27 ()) in
  (* s27 has 3 flops: 99 clamps to 3, the duplicate 2 drops. *)
  Alcotest.(check (list int)) "sweep shifts, clamped and deduped" [ 2; 3 ]
    (List.map fst r.Lint.sweep);
  List.iter
    (fun (s, table) ->
      Alcotest.(check int) "one row per cell" (Array.length r.Lint.risk) (Array.length table);
      Array.iter
        (fun (row : Scan_lint.risk_row) ->
          if row.emitted && row.risk <> 0 then
            Alcotest.failf "sweep shift %d: emitted position %d has risk %d" s row.position
              row.risk)
        table)
    r.Lint.sweep;
  (* Larger shifts emit more of the chain. *)
  let retained table =
    Array.fold_left
      (fun acc (row : Scan_lint.risk_row) -> if row.emitted then acc else acc + 1)
      0 table
  in
  Alcotest.(check bool) "monotone emitted windows" true
    (retained r.Lint.risk > retained (List.assoc 2 r.Lint.sweep)
    && retained (List.assoc 2 r.Lint.sweep) > retained (List.assoc 3 r.Lint.sweep));
  (* JSON carries the sweep; the wire codec round-trips it. *)
  (match Json.parse (Lint.to_json_string r) with
  | Error m -> Alcotest.failf "lint json does not re-parse: %s" m
  | Ok doc -> (
      Alcotest.(check (option bool)) "schema is 2" (Some true)
        (Option.map (fun j -> j = Json.Int Lint.schema_version) (Json.member "schema" doc));
      match Json.member "risk_sweep" doc with
      | Some (Json.Arr entries) ->
          Alcotest.(check int) "risk_sweep has one entry per sweep shift" 2
            (List.length entries)
      | _ -> Alcotest.fail "risk_sweep missing"));
  let w = Wire.writer () in
  Lint.encode_report w r;
  let r' = Lint.decode_report (Wire.reader (Wire.contents w)) in
  Alcotest.(check bool) "report wire round-trip keeps the sweep" true (r = r');
  (* ASCII renders one table per shift: the primary plus the sweep. *)
  let ascii = Lint.to_ascii r in
  let tables = ref 0 in
  String.split_on_char '\n' ascii
  |> List.iter (fun l ->
         if String.length l >= 17 && String.sub l 0 17 = "hidden-fault risk" then incr tables);
  Alcotest.(check int) "one ascii table per shift" 3 !tables

(* --- report schema (satellite 5; cec section added by the v3 bump) ------- *)

let test_report_schema_bump () =
  Alcotest.(check int) "report schema is 3" 3 Report.schema_version;
  let entry =
    {
      Report.tpi_circuit = "s27";
      points = 1;
      converted_faults = 2;
      caught = 2;
      d_coverage = 0.0;
      dm = 0.84;
      dt = 0.35;
    }
  in
  let cec_entry =
    {
      Report.cec_circuit = "s27";
      transform = "scan";
      verdict = "equivalent";
      points = 4;
      sat_calls = 3;
      decisions = 7;
    }
  in
  let report =
    Report.make ~tpi:[ entry ] ~cec:[ cec_entry ] ~jobs:1
      ~runs:[ { Report.artifact = "tpi"; circuit = None; wall_ns = 1e9; benchmarks = [] } ]
      ~metrics:[] ()
  in
  (match Report.of_json (Report.to_json report) with
  | Error m -> Alcotest.failf "v3 report does not round-trip: %s" m
  | Ok r ->
      Alcotest.(check bool) "tpi section survives" true (r.Report.tpi = [ entry ]);
      Alcotest.(check bool) "cec section survives" true (r.Report.cec = [ cec_entry ]));
  (* Only the current schema parses: a v1 document (no tpi or cec member)
     and a v2 document (tpi but no cec member) are rejected by version. *)
  List.iter
    (fun (label, doc) ->
      match Report.of_json doc with
      | Ok _ -> Alcotest.failf "%s report accepted" label
      | Error m ->
          Alcotest.(check bool) (label ^ " rejected by schema_version") true
            (String.starts_with ~prefix:"schema_version" m))
    [
      ( "v1",
        {|{"schema_version":1,"tool":"tvs-bench","scale":null,"jobs":1,"git_rev":null,"runs":[],"metrics":{}}|}
      );
      ( "v2",
        {|{"schema_version":2,"tool":"tvs-bench","scale":null,"jobs":1,"git_rev":null,"runs":[],"tpi":[],"metrics":{}}|}
      );
    ];
  (* An out-of-range caught count is invalid, and so is a bad verdict. *)
  (let bad = Report.to_json { report with Report.tpi = [ { entry with Report.caught = 3 } ] } in
   match Report.of_json bad with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "caught > converted_faults accepted");
  let bad =
    Report.to_json { report with Report.cec = [ { cec_entry with Report.verdict = "maybe" } ] }
  in
  match Report.of_json bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown cec verdict accepted"

(* --- Verilog round-trip over TPI-modified circuits (satellite 2) --------- *)

(* Same family as test_verilog: net names are already legal Verilog
   identifiers (as are the tpi_ names), so round-trips are exact. *)
let tiny_circuit i =
  let styles = [| Profiles.Balanced; Profiles.Shallow; Profiles.Deep |] in
  Synth.generate
    {
      Profiles.name = Printf.sprintf "tprop%d" i;
      npi = 2 + (i mod 5);
      npo = 1 + (i mod 4);
      nff = 1 + (i mod 6);
      ngates = 20 + (5 * (i mod 11));
      style = styles.(i mod 3);
    }

let isomorphic a b =
  let statement_lines c =
    String.split_on_char '\n' (Bench_format.to_string c)
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.sort compare
  in
  Circuit.num_nets a = Circuit.num_nets b
  && Circuit.num_inputs a = Circuit.num_inputs b
  && Circuit.num_flops a = Circuit.num_flops b
  && Circuit.num_outputs a = Circuit.num_outputs b
  && statement_lines a = statement_lines b

(* Insert points (mined when available, else a synthetic observe cell on
   the first flop's Q) so every case exercises a modified netlist. *)
let with_points i =
  let c = tiny_circuit i in
  let cands =
    match Candidate.mine ~po_taps:(i mod 2 = 0) ~limit:2 c with
    | [] -> [ obs_cand (Circuit.net_name c (Circuit.flops c).(0)) ]
    | l -> l
  in
  Transform.apply c cands

let qcheck_tpi_verilog_roundtrip =
  QCheck.Test.make ~name:"verilog round-trip parse(emit tpi(c)) = tpi(c)" ~count:30
    QCheck.(int_range 0 64)
    (fun i ->
      let c' = with_points i in
      let e = Emitter.emit c' in
      isomorphic c' (Frontend.parse_string ~name:(Circuit.name c') e.Emitter.text))

let qcheck_tpi_scan_roundtrip =
  QCheck.Test.make ~name:"scan emission of tpi netlists re-parses functionally" ~count:20
    QCheck.(int_range 0 64)
    (fun i ->
      let c' = with_points i in
      let e = Emitter.emit ~scan:true c' in
      let c'' = Frontend.parse_string e.Emitter.text in
      (* scan_in/scan_en vanish; `assign scan_out = <tail q>` survives as
         one BUF driving one extra output — observe cells included, since
         they are ordinary chain cells to the emitter. *)
      Circuit.num_inputs c'' = Circuit.num_inputs c'
      && Circuit.num_flops c'' = Circuit.num_flops c'
      && Circuit.num_outputs c'' = Circuit.num_outputs c' + 1
      && Circuit.num_nets c'' = Circuit.num_nets c' + 1)

let qcheck_transform_preserves_integrity =
  QCheck.Test.make ~name:"tpi netlists keep scan integrity" ~count:30
    QCheck.(int_range 0 64)
    (fun i ->
      let c' = with_points i in
      List.for_all
        (fun (d : Diagnostic.t) ->
          match d.rule with "TVS-S001" | "TVS-S002" | "TVS-S003" -> false | _ -> true)
        (Scan_lint.integrity c'))

let () =
  Alcotest.run "tpi"
    [
      ( "candidates",
        [ Alcotest.test_case "mining is ranked and deterministic" `Quick test_mine_ranked ] );
      ( "transform",
        [
          Alcotest.test_case "observe cells extend the chain" `Quick test_transform_observe;
          Alcotest.test_case "po taps and control points" `Quick
            test_transform_po_tap_and_controls;
          Alcotest.test_case "rejects bad candidate sets" `Quick test_transform_rejects;
          QCheck_alcotest.to_alcotest qcheck_transform_preserves_integrity;
        ] );
      ( "risk contract",
        [
          Alcotest.test_case "scan integrity preserved" `Quick test_integrity_preserved;
          Alcotest.test_case "targeted risk strictly decreases" `Quick
            test_risk_strictly_decreases;
        ] );
      ( "study",
        [
          Alcotest.test_case "converts hidden faults on s27 and s444" `Quick
            test_study_converts;
          Alcotest.test_case "jobs-invariant" `Quick test_study_deterministic;
          Alcotest.test_case "memoized through the cache" `Quick test_study_cached;
          Alcotest.test_case "rejects circuits without flops" `Quick
            test_study_rejects_combinational;
          Alcotest.test_case "result wire codec" `Quick test_result_codec;
          Alcotest.test_case "json document" `Quick test_study_json;
        ] );
      ( "lint sweep",
        [ Alcotest.test_case "multi-shift risk tables" `Quick test_lint_sweep ] );
      ( "report",
        [ Alcotest.test_case "schema v3 with tpi and cec sections" `Quick test_report_schema_bump ] );
      ( "verilog",
        [
          QCheck_alcotest.to_alcotest qcheck_tpi_verilog_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_tpi_scan_roundtrip;
        ] );
    ]
