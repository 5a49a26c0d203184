(* Benchmark harness: regenerates every table of the paper's evaluation and
   times the kernels behind each one with Bechamel.

     dune exec bench/main.exe                 # all tables + microbenchmarks
     dune exec bench/main.exe -- table2       # one artifact
     dune exec bench/main.exe -- --scale 0.5 table5
     dune exec bench/main.exe -- micro        # Bechamel suite only
     dune exec bench/main.exe -- --out bench.json table5   # + JSON report

   Table circuits default to full profile scale except the four Table 5
   giants (0.25 linear scale); see DESIGN.md §5 and EXPERIMENTS.md.
   --scale, --jobs and --cache are the Tvs_harness.Cli terms the tvs CLI
   uses; --help lists every flag. *)

open Bechamel

module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Report = Tvs_obs.Report
module Cli = Tvs_harness.Cli

let artifacts =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "ablations"; "misr"; "comparison";
    "diagnosis"; "randtest"; "tpi"; "cec"; "micro";
  ]

(* Artifact runs accumulated for the --out report, in execution order. *)
let runs : Report.run list ref = ref []

(* Test-point-insertion studies for the report's [tpi] section. *)
let tpi_entries : Report.tpi_entry list ref = ref []

(* Equivalence-checker gates for the report's [cec] section. *)
let cec_entries : Report.cec_entry list ref = ref []

(* [body] produces the artifact's printed text plus any Bechamel estimates;
   the header carries the artifact's own wall time so a slow table is
   attributable at a glance. *)
let section title artifact body =
  let (text, benchmarks), secs = Tvs_util.Clock.time_it body in
  Printf.printf "==== %s (%.1fs) ====\n%s\n%!" title secs text;
  runs := { Report.artifact; circuit = None; wall_ns = secs *. 1e9; benchmarks } :: !runs

let table title artifact body = section title artifact (fun () -> (body (), []))

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per table, timing the kernel that the
   table's experiment leans on.                                        *)

let micro_tests () =
  let fig1 = Tvs_circuits.Fig1.circuit () in
  let fig1_faults =
    Array.of_list (List.map (Tvs_circuits.Fig1.paper_fault fig1) Tvs_circuits.Fig1.table1_faults)
  in
  let s444 = Tvs_circuits.Synth.generate_named "s444" in
  let s444_faults = Tvs_fault.Fault_gen.collapsed s444 in
  let s444_ctx = Tvs_atpg.Podem.create s444 in
  let s444_sim = Tvs_fault.Fault_sim.create s444 in
  let s444_vec =
    let rng = Tvs_util.Rng.of_string "bench:vec" in
    {
      Tvs_atpg.Cube.pi = Array.init (Tvs_netlist.Circuit.num_inputs s444) (fun _ -> Tvs_util.Rng.bool rng);
      scan = Array.init (Tvs_netlist.Circuit.num_flops s444) (fun _ -> Tvs_util.Rng.bool rng);
    }
  in
  let s444_vecs =
    let rng = Tvs_util.Rng.of_string "bench:vecs" in
    Array.init 16 (fun _ ->
        ( Array.init (Tvs_netlist.Circuit.num_inputs s444) (fun _ -> Tvs_util.Rng.bool rng),
          Array.init (Tvs_netlist.Circuit.num_flops s444) (fun _ -> Tvs_util.Rng.bool rng) ))
  in
  [
    (* Table 1: one stitched cycle of the worked example. *)
    Test.make ~name:"table1/cycle-step"
      (Staged.stage (fun () ->
           let machine = Tvs_core.Cycle.create fig1 ~faults:fig1_faults in
           List.iter
             (fun fresh -> ignore (Tvs_core.Cycle.step machine ~pi:[||] ~fresh))
             Tvs_circuits.Fig1.fresh_bits));
    (* Table 2: constrained PODEM, the kernel behind every shift-size row. *)
    Test.make ~name:"table2/podem-constrained"
      (Staged.stage
         (let constraints =
            Array.init (Tvs_netlist.Circuit.num_flops s444) (fun i ->
                if i < 10 then Tvs_logic.Ternary.X else Tvs_logic.Ternary.of_bool (i mod 2 = 0))
          in
          fun () ->
            Array.iteri
              (fun i f ->
                if i mod 97 = 0 then
                  ignore (Tvs_atpg.Podem.generate ~constraints s444_ctx f))
              s444_faults));
    (* Table 3: XOR write-back/observation schemes. *)
    Test.make ~name:"table3/xor-schemes"
      (Staged.stage
         (let contents = Array.init 64 (fun i -> i mod 3 = 0) in
          let fresh = Array.make 8 true in
          let capture = Array.init 64 (fun i -> i mod 5 = 0) in
          fun () ->
            List.iter
              (fun scheme ->
                ignore (Tvs_scan.Xor_scheme.observe scheme ~contents ~fresh);
                ignore (Tvs_scan.Xor_scheme.writeback scheme ~applied_scan:contents ~capture))
              [ Tvs_scan.Xor_scheme.Nxor; Tvs_scan.Xor_scheme.Vxor; Tvs_scan.Xor_scheme.Hxor 3 ]));
    (* Table 4: SCOAP hardness ordering, the basis of the Hardness strategy. *)
    Test.make ~name:"table4/scoap-hardness"
      (Staged.stage (fun () ->
           let guide = Tvs_atpg.Scoap.compute s444 in
           Array.iter (fun f -> ignore (Tvs_atpg.Scoap.fault_hardness guide f)) s444_faults));
    (* Table 5: word-parallel event-driven fault simulation, the
       large-circuit workhorse; each call orders the faults into chunks and
       compiles their injection plans afresh. *)
    Test.make ~name:"table5/parallel-faultsim"
      (Staged.stage (fun () ->
           ignore
             (Tvs_fault.Fault_sim.detected_faults s444_sim ~pi:s444_vec.Tvs_atpg.Cube.pi
                ~state:s444_vec.Tvs_atpg.Cube.scan s444_faults)));
    (* The multi-vector screen behind baseline grading: 16 vectors in one
       call share one packed fault-free sweep and one root flip per
       fanout-free region. *)
    Test.make ~name:"table5/faultsim-matrix"
      (Staged.stage (fun () ->
           ignore (Tvs_fault.Fault_sim.detected_matrix s444_sim ~vectors:s444_vecs s444_faults)));
  ]

(* The fault-simulation work done from this call until the returned
   function is called, read from the registry's [faultsim.*] counters. *)
let faultsim_work () =
  let reading name = Tvs_obs.Metrics.(counter_value (counter ("faultsim." ^ name))) in
  let since =
    List.map
      (fun name -> (name, reading name))
      [ "chunks"; "events_fired"; "gate_evals"; "gates_skipped"; "faults_dropped" ]
  in
  fun () ->
    let delta name = reading name - List.assoc name since in
    let evals = delta "gate_evals" and skipped = delta "gates_skipped" in
    let skip_pct =
      if evals + skipped = 0 then 0.0
      else 100.0 *. float_of_int skipped /. float_of_int (evals + skipped)
    in
    Printf.sprintf
      "%d event runs, %d events fired, %d gate evals (%.1f%% skipped), %d faults dropped"
      (delta "chunks") (delta "events_fired") evals skip_pct (delta "faults_dropped")

let run_micro () =
  let tests = micro_tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let buf = Buffer.create 1024 in
  let benches = ref [] in
  let work = faultsim_work () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysis = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
              benches := { Report.name; ns_per_run = est } :: !benches;
              Buffer.add_string buf (Printf.sprintf "%-28s %12.0f ns/run\n" name est)
          | Some [] | None -> Buffer.add_string buf (Printf.sprintf "%-28s (no estimate)\n" name))
        analysis)
    tests;
  Buffer.add_string buf
    (Printf.sprintf "faultsim counters: %s\n" (work ()));
  (Buffer.contents buf, List.rev !benches)

(* ------------------------------------------------------------------ *)

(* The TPI artifact: one greedy study per circuit, rendered like the CLI,
   with the headline numbers folded into the report's [tpi] section. *)
let run_tpi () =
  let module Tpi = Tvs_tpi.Tpi in
  let buf = Buffer.create 1024 in
  List.iter
    (fun name ->
      let c =
        if name = "s27" then Tvs_circuits.S27.circuit ()
        else Tvs_circuits.Synth.generate_named name
      in
      let r = Tpi.run ~options:{ Tpi.default_options with Tpi.points = 2 } c in
      Buffer.add_string buf (Tpi.to_ascii r);
      let final = Tpi.final_summary r in
      tpi_entries :=
        {
          Report.tpi_circuit = r.Tpi.circuit;
          points = List.length r.Tpi.points;
          converted_faults = r.Tpi.converted_faults;
          caught = r.Tpi.caught;
          d_coverage = final.Experiments.coverage -. r.Tpi.base.Experiments.coverage;
          dm = final.Experiments.m -. r.Tpi.base.Experiments.m;
          dt = final.Experiments.t -. r.Tpi.base.Experiments.t;
        }
        :: !tpi_entries)
    [ "s27"; "s444" ];
  Buffer.contents buf

(* The CEC artifact: prove the scan and TPI rewrites function-preserving on
   a couple of profiles, folding each verdict into the report's [cec]
   section. The verdicts are deterministic at any --jobs width, so the
   section is part of the stable, byte-comparable report body. *)
let run_cec () =
  let module Cec = Tvs_cec.Cec in
  let module Tpi = Tvs_tpi.Tpi in
  let buf = Buffer.create 1024 in
  let gate transform left right =
    let r = Cec.check left right in
    Buffer.add_string buf (Cec.to_ascii r);
    cec_entries :=
      {
        Report.cec_circuit = r.Cec.left;
        transform;
        verdict = Cec.verdict_name r.Cec.verdict;
        points = Cec.points r;
        sat_calls = r.Cec.sat_calls;
        decisions = r.Cec.decisions;
      }
      :: !cec_entries
  in
  List.iter
    (fun name ->
      let c =
        if name = "s27" then Tvs_circuits.S27.circuit ()
        else Tvs_circuits.Synth.generate_named name
      in
      gate "scan" c (Tvs_netlist.Scan_insert.insert c).Tvs_netlist.Scan_insert.circuit;
      let study = Tpi.run ~options:{ Tpi.default_options with Tpi.points = 2 } c in
      let cands = List.map (fun (p : Tpi.point) -> p.Tpi.candidate) study.Tpi.points in
      gate "tpi" c (Tvs_tpi.Transform.apply c cands))
    [ "s27"; "s444" ];
  Buffer.contents buf

let write_report ?scale file =
  let report =
    Report.make ?scale ?git_rev:(Report.git_rev ()) ~tpi:(List.rev !tpi_entries)
      ~cec:(List.rev !cec_entries) ~jobs:(Tvs_util.Pool.default_jobs ()) ~runs:(List.rev !runs)
      ~metrics:(Tvs_obs.Metrics.snapshot ()) ()
  in
  let oc = open_out file in
  output_string oc (Report.to_json report);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "bench report written to %s\n%!" file

(* Artifacts run in the fixed order below, each once, whatever order (or
   repetition) they are named in; none named means all of them. *)
let run () () scale out only =
  let wants what = only = [] || List.mem what only in
  let t0 = Unix.gettimeofday () in
  if wants "table1" then table "Table 1 / Figure 1" "table1" Experiments.table1;
  if wants "table2" then table "Table 2" "table2" (fun () -> Experiments.table2 ?scale ());
  if wants "table3" then table "Table 3" "table3" (fun () -> Experiments.table3 ?scale ());
  if wants "table4" then table "Table 4" "table4" (fun () -> Experiments.table4 ?scale ());
  if wants "table5" then table "Table 5" "table5" (fun () -> Experiments.table5 ?scale ());
  if wants "ablations" then table "Ablations" "ablations" (fun () -> Experiments.ablations ());
  if wants "misr" then
    table "MISR aliasing / diagnosis study" "misr" (fun () -> Experiments.misr_study ());
  if wants "comparison" then
    table "Prior-art comparison" "comparison" (fun () -> Experiments.comparison_study ());
  if wants "diagnosis" then
    table "Diagnosis resolution" "diagnosis" (fun () -> Experiments.diagnosis_study ());
  if wants "randtest" then
    table "Random-pattern testability" "randtest" (fun () -> Experiments.random_testability ());
  if wants "tpi" then table "Test-point insertion" "tpi" run_tpi;
  if wants "cec" then table "Equivalence-checker gates" "cec" run_cec;
  if wants "micro" then
    section "Bechamel microbenchmarks (one kernel per table)" "micro" run_micro;
  Option.iter (write_report ?scale) out;
  Printf.printf "total wall time: %.1fs\n" (Unix.gettimeofday () -. t0)

let () =
  let open Cmdliner in
  let out =
    let doc = "Also write a machine-readable JSON report of the run to $(docv)." in
    Arg.(value & opt (some (Cli.out_file ~flag:"--out")) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let only =
    let doc = "Artifacts to regenerate: " ^ String.concat ", " artifacts ^ " (default: all)." in
    Arg.(
      value
      & pos_all (enum (List.map (fun a -> (a, a)) artifacts)) []
      & info [] ~docv:"ARTIFACT" ~doc)
  in
  let info =
    Cmd.info "bench" ~doc:"Regenerate the paper's tables and time the kernels behind them"
  in
  exit
    (Cmd.eval
       (Cmd.v info Term.(const run $ Cli.cache $ Cli.jobs $ Cli.scale $ out $ only)))
