(* tvs — command-line driver for the test-vector-stitching toolkit.

   Subcommands:
     stats     structural statistics of a circuit
     lint      rule-based static analysis + hidden-fault risk table
     atpg      traditional full-shift test generation (baseline)
     faultsim  fault-simulate a circuit's baseline test set
     stitch    run the stitched flow and report compression
     tpi       ATPG-aware test-point insertion driven by the risk table
     serve     persistent stitching daemon (Unix/TCP socket, JSONL frames)
     table     regenerate a paper table (1-5)
     ablation  run the design-choice ablations
     emit      render a circuit as structural Verilog
     xcheck    cross-validate against an external Verilog simulator
     fig1      print the worked-example walkthrough *)

module Circuit = Tvs_netlist.Circuit
module Bench_format = Tvs_netlist.Bench_format
module Stats = Tvs_netlist.Stats
module Cube = Tvs_atpg.Cube
module Xor_scheme = Tvs_scan.Xor_scheme
module Policy = Tvs_core.Policy
module Baseline = Tvs_core.Baseline
module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Lint = Tvs_lint.Lint
module Lint_diag = Tvs_lint.Diagnostic
module Tpi = Tvs_tpi.Tpi
module Cec = Tvs_cec.Cec
module Codec = Tvs_store.Codec
module Checkpoint = Tvs_store.Checkpoint
module Cli = Tvs_harness.Cli

open Cmdliner

(* A circuit argument: a known profile name ("s444"), "s27", "fig1", or a
   path to a .bench file. Unknown specs are rejected at parse time by
   cmdliner (usage error, non-zero exit). *)
let circuit_conv = Cli.conv ~docv:"CIRCUIT" Cli.check_spec

(* The spec was validated by [circuit_conv]; only a malformed .bench file can
   still fail here. *)
let load_circuit ?scale spec =
  match Cli.load_circuit ?scale spec with
  | Ok c -> c
  | Error msg ->
      prerr_endline ("tvs: " ^ msg);
      exit Cmd.Exit.cli_error

let circuit_arg =
  let doc = "Circuit: a benchmark profile name (s444 ... s38584), s27, fig1, or a .bench file." in
  Arg.(required & pos 0 (some circuit_conv) None & info [] ~docv:"CIRCUIT" ~doc)

let prep_of ?scale spec = Prep.of_circuit (load_circuit ?scale spec)

(* Observability flags, shared by every subcommand. Both channels bypass
   stdout — the metrics table goes to stderr and the trace to its own file —
   so the printed tables stay byte-identical whether or not the flags are
   given (CI diffs on exactly that). *)
let metrics_arg =
  let doc = "Print the merged metrics registry to standard error at exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Record span traces and write them to $(docv) at exit as Chrome trace-event JSON (load via \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some (Cli.out_file ~flag:"--trace")) None & info [ "trace" ] ~docv:"FILE" ~doc)

let setup_obs metrics trace =
  if metrics then begin
    Tvs_obs.Instrument.install_pool_probe ();
    at_exit (fun () -> prerr_string (Tvs_obs.Metrics.render ~all:true ()))
  end;
  match trace with
  | None -> ()
  | Some file ->
      Tvs_obs.Trace.start ();
      at_exit (fun () ->
          Tvs_obs.Trace.write file;
          Printf.eprintf "tvs: trace written to %s\n" file)

let obs_term = Term.(const setup_obs $ metrics_arg $ trace_arg)

let format_arg =
  let doc = "Output format: $(b,ascii) or $(b,json)." in
  Arg.(
    value
    & opt (Arg.enum [ ("ascii", `Ascii); ("json", `Json) ]) `Ascii
    & info [ "format" ] ~docv:"FMT" ~doc)

(* Equivalence gate behind the `--verify` flags of `tvs tpi` / `tvs emit`.
   Reports through stderr so the gated command's own stdout stays
   byte-identical with and without the gate. *)
let verify_gate ~what left right =
  match Cec.check left right with
  | r -> (
      match r.Cec.verdict with
      | Cec.Equivalent ->
          Printf.eprintf
            "tvs: %s verify: proven function-preserving (%d point(s), %d sat call(s))\n" what
            (Cec.points r) r.Cec.sat_calls
      | Cec.Inequivalent _ | Cec.Unknown _ ->
          prerr_string (Cec.to_ascii r);
          Printf.eprintf "tvs: %s verify FAILED\n" what;
          exit 1)
  | exception Cec.Mismatch msg ->
      Printf.eprintf "tvs: %s verify: interface mismatch: %s\n" what msg;
      exit 1

let stats_cmd =
  let run () spec scale =
    let c = load_circuit ?scale spec in
    Format.printf "%a@." Stats.pp (Stats.compute c);
    let issues = Tvs_netlist.Validate.check c in
    if issues = [] then Format.printf "validation: clean@."
    else begin
      Format.printf "validation issues:@.";
      List.iter (fun i -> Format.printf "  %a@." (Tvs_netlist.Validate.pp_issue c) i) issues
    end
  in
  Cmd.v (Cmd.info "stats" ~doc:"Structural statistics and validation of a circuit")
    Term.(const run $ obs_term $ circuit_arg $ Cli.scale)

let lint_cmd =
  let circuit_opt_arg =
    let doc =
      "Circuit: a benchmark profile name (s444 ... s38584), s27, fig1, or a .bench file. \
       Optional with $(b,--list-rules)."
    in
    Arg.(value & pos 0 (some circuit_conv) None & info [] ~docv:"CIRCUIT" ~doc)
  in
  let rules_arg =
    let doc =
      "Keep only diagnostics whose rule id matches one of these comma-separated ids or id \
       prefixes (e.g. TVS-N001,TVS-D). See $(b,--list-rules)."
    in
    Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"LIST" ~doc)
  in
  let fail_on_arg =
    let doc =
      "Exit 1 when a diagnostic at or above $(docv) exists: error, warning, info, or never."
    in
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("error", Some Lint_diag.Error);
               ("warning", Some Lint_diag.Warning);
               ("info", Some Lint_diag.Info);
               ("never", None);
             ])
          (Some Lint_diag.Error)
      & info [ "fail-on" ] ~docv:"SEV" ~doc)
  in
  let lint_shift_arg =
    let doc =
      "Shift size(s) for the hidden-fault risk table (default: chain length / 4). A \
       comma-separated list ($(b,--shift 2,4,8)) sweeps: the first shift is the primary table, \
       each further shift adds its own table."
    in
    Arg.(value & opt (some string) None & info [ "shift" ] ~docv:"S[,S...]" ~doc)
  in
  let sat_faults_arg =
    let doc = "Attempt SAT untestability proofs on at most $(docv) hardest faults (0 disables)." in
    Arg.(
      value
      & opt (Cli.int_conv ~docv:"N" (Cli.check_non_negative "--sat-faults"))
          Lint.default_options.Lint.sat_faults
      & info [ "sat-faults" ] ~docv:"N" ~doc)
  in
  let sat_budget_arg =
    let doc = "Per-fault SAT decision budget; exhausted proofs report TVS-D005 (undecided)." in
    Arg.(
      value
      & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--sat-budget"))
          Lint.default_options.Lint.sat_decisions
      & info [ "sat-budget" ] ~docv:"N" ~doc)
  in
  let list_rules_arg =
    let doc = "Print the rule catalog (id, severity, title) and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let die_cli msg =
    prerr_endline ("tvs: " ^ msg);
    exit Cmd.Exit.cli_error
  in
  let run () () () list_rules spec scale format rules fail_on shift sat_faults sat_budget =
    if list_rules then
      List.iter
        (fun (r : Lint_diag.rule_info) ->
          Printf.printf "%s  %-7s  %s\n" r.Lint_diag.id
            (Lint_diag.severity_to_string r.Lint_diag.default_severity)
            r.Lint_diag.title)
        Lint_diag.catalog
    else begin
      let spec =
        match spec with
        | Some s -> s
        | None -> die_cli "lint needs a CIRCUIT argument (or --list-rules)"
      in
      let rules =
        Option.map
          (fun s ->
            let ids = List.filter (fun r -> r <> "") (String.split_on_char ',' s) in
            if ids = [] then die_cli "--rules: empty rule list";
            List.iter
              (fun r ->
                if
                  not
                    (List.exists
                       (fun (i : Lint_diag.rule_info) -> Lint_diag.matches r ~rule:i.Lint_diag.id)
                       Lint_diag.catalog)
                then die_cli (Printf.sprintf "--rules: %S matches no rule id (see --list-rules)" r))
              ids;
            ids)
          rules
      in
      let shift, sweep =
        match shift with
        | None -> (None, [])
        | Some s -> (
            let parse v =
              match int_of_string_opt v with
              | Some n when n >= 1 -> n
              | _ -> die_cli (Printf.sprintf "--shift: %S is not a positive shift size" v)
            in
            match List.filter (fun v -> v <> "") (String.split_on_char ',' s) with
            | [] -> die_cli "--shift: empty shift list"
            | first :: rest -> (Some (parse first), List.map parse rest))
      in
      let options = { Lint.rules; sat_faults; sat_decisions = sat_budget; shift; sweep } in
      (* Netlist files (.bench or structural Verilog) are linted from source
         so statement-level defects (syntax, cycles, duplicate/undefined
         nets) become diagnostics with line numbers in the original file;
         built-in circuits have no source text and go through the
         (cacheable) circuit-level path. *)
      let report =
        if Sys.file_exists spec then
          let text = In_channel.with_open_bin spec In_channel.input_all in
          Lint.run_source ~options
            ~format:(Tvs_verilog.Loader.detect ~path:spec text)
            ~name:Filename.(remove_extension (basename spec))
            text
        else Experiments.lint_report ~options (load_circuit ?scale spec)
      in
      (match format with
      | `Ascii -> print_string (Lint.to_ascii report)
      | `Json -> print_endline (Lint.to_json_string report));
      match fail_on with
      | Some sev when Lint.failed ~fail_on:sev report -> exit 1
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Rule-based static analysis: structural, dataflow and scan-chain checks plus a \
          hidden-fault risk table")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ list_rules_arg $ circuit_opt_arg $ Cli.scale
      $ format_arg $ rules_arg $ fail_on_arg $ lint_shift_arg $ sat_faults_arg $ sat_budget_arg)

let atpg_cmd =
  let run () () spec scale =
    let prep = prep_of ?scale spec in
    let b = prep.Prep.baseline in
    Printf.printf "circuit        : %s\n" (Circuit.name prep.Prep.circuit);
    Printf.printf "faults (coll.) : %d (of %d total)\n" (Array.length prep.Prep.faults)
      (Array.length prep.Prep.all_faults);
    Printf.printf "vectors (aTV)  : %d\n" b.Baseline.num_vectors;
    Printf.printf "redundant      : %d\n" (List.length b.Baseline.redundant);
    Printf.printf "aborted        : %d\n" (List.length b.Baseline.aborted);
    Printf.printf "coverage       : %.4f\n" b.Baseline.coverage;
    Printf.printf "test time      : %d shift cycles\n" b.Baseline.time;
    Printf.printf "tester memory  : %d bits\n" b.Baseline.memory
  in
  Cmd.v (Cmd.info "atpg" ~doc:"Traditional full-shift test generation (the aTV baseline)")
    Term.(const run $ obs_term $ Cli.jobs $ circuit_arg $ Cli.scale)

let faultsim_cmd =
  let run () () () spec scale =
    let prep = prep_of ?scale spec in
    let d = Experiments.baseline_detection prep in
    Printf.printf "%s: %d/%d faults detected by the %d baseline vectors (%.2f%%)\n"
      (Circuit.name prep.Prep.circuit) d.Experiments.detected d.Experiments.faults
      d.Experiments.vectors
      (100.0 *. float_of_int d.Experiments.detected /. float_of_int d.Experiments.faults)
  in
  Cmd.v (Cmd.info "faultsim" ~doc:"Fault-simulate the baseline test set")
    Term.(const run $ obs_term $ Cli.cache $ Cli.jobs $ circuit_arg $ Cli.scale)

(* Scheme and selection share their vocabulary with the serve protocol's job
   fields through Tvs_harness.Cli, so the CLI and a serve client can never
   drift apart. *)
let scheme_arg =
  let doc = "Observation scheme: nxor, vxor or hxor:<taps>." in
  let scheme_conv =
    Arg.conv' ~docv:"SCHEME"
      (Cli.parse_scheme, fun fmt s -> Format.pp_print_string fmt (Xor_scheme.to_string s))
  in
  Arg.(value & opt scheme_conv Xor_scheme.Nxor & info [ "scheme" ] ~docv:"SCHEME" ~doc)

let selection_arg =
  let doc = "Vector selection: random, hardness, most-faults or weighted." in
  let sel_conv =
    Arg.conv' ~docv:"SEL"
      (Cli.parse_selection, fun fmt s -> Format.pp_print_string fmt (Policy.describe_selection s))
  in
  Arg.(value & opt sel_conv (Policy.Most_faults 5) & info [ "selection" ] ~docv:"SEL" ~doc)

let shift_arg =
  let doc =
    "Fixed shift size per cycle, from 1 to the scan chain length; omit for the variable policy."
  in
  Arg.(value & opt (some (Cli.int_conv ~docv:"S" Cli.check_shift)) None
       & info [ "shift" ] ~docv:"S" ~doc)

let die msg =
  prerr_endline ("tvs: " ^ msg);
  exit Cmd.Exit.some_error

(* The engine refuses a configuration it cannot run (a failed preflight, a
   fixed shift past the scan chain, a circuit with no flip-flops) with
   [Failure] before its first cycle: a message and exit 123, not an
   internal error. *)
let or_die f = try f () with Failure msg -> die msg

(* Shared by [stitch], [resume] and the serve daemon's done events: all must
   produce byte-identical summaries for the same run (CI diffs a resumed run
   and a served response against an uninterrupted run on exactly this
   block). *)
let print_stitch_summary prep scheme selection (r : Experiments.run_summary) =
  print_string
    (Experiments.render_summary ~circuit:(Circuit.name prep.Prep.circuit) ~scheme ~selection r)

let checkpoint_file_arg =
  let doc =
    "Save an engine checkpoint to $(docv) periodically (atomic temp+rename writes). A run the \
     $(b,--cache) answers runs no engine and writes no $(docv)."
  in
  Arg.(
    value
    & opt (some (Cli.out_file ~flag:"--checkpoint")) None
    & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Checkpoint period, in stitched cycles." in
  Arg.(
    value
    & opt (Cli.int_conv ~docv:"N" Cli.check_checkpoint_every) 4
    & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let preflight_arg =
  let doc =
    "Run the lint preflight gate (structural and constant-propagation checks) before stitching \
     and abort on any error-severity finding."
  in
  Arg.(value & flag & info [ "preflight" ] ~doc)

let stitch_cmd =
  let run () () () spec scale scheme selection shift preflight ckpt every =
    let prep = prep_of ?scale spec in
    let save = Option.map (fun file -> (every, Checkpoint.save file)) ckpt in
    match
      or_die (fun () ->
          Experiments.stitch ~spec ~scale:(Option.value scale ~default:1.0) ~scheme ~selection
            ~shift ~label:"cli" ~preflight ?save prep)
    with
    | Ok (r, _) -> print_stitch_summary prep scheme selection r
    | Error msg -> die msg
  in
  Cmd.v (Cmd.info "stitch" ~doc:"Run the stitched compression flow")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ circuit_arg $ Cli.scale
      $ scheme_arg $ selection_arg $ shift_arg $ preflight_arg $ checkpoint_file_arg
      $ checkpoint_every_arg)

let resume_cmd =
  let file_arg =
    let doc = "Checkpoint file written by stitch --checkpoint." in
    let resume_conv = Cli.conv ~docv:"FILE" Cli.check_resume_file in
    Arg.(required & pos 0 (some resume_conv) None & info [] ~docv:"FILE" ~doc)
  in
  let run () () () file ckpt every =
    match Checkpoint.load file with
    | Error e ->
        die (Printf.sprintf "cannot resume from %S: %s" file (Codec.error_to_string e))
    | Ok ck -> (
        let spec =
          match Cli.check_spec ck.Checkpoint.spec with
          | Ok s -> s
          | Error msg -> die (Printf.sprintf "checkpoint circuit unavailable: %s" msg)
        in
        let prep = prep_of ~scale:ck.Checkpoint.scale spec in
        let save = Option.map (fun file -> (every, Checkpoint.save file)) ckpt in
        match
          or_die (fun () ->
              Experiments.stitch ~spec ~scale:ck.Checkpoint.scale ~scheme:ck.Checkpoint.scheme
                ~selection:ck.Checkpoint.selection ~shift:ck.Checkpoint.shift
                ~label:ck.Checkpoint.label ~resume:ck ?save prep)
        with
        | Ok (r, _) -> print_stitch_summary prep ck.Checkpoint.scheme ck.Checkpoint.selection r
        | Error msg -> die (Printf.sprintf "cannot resume from %S: %s" file msg))
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Continue an interrupted stitched run from a checkpoint; the output is byte-identical \
          to the uninterrupted run's")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ file_arg $ checkpoint_file_arg
      $ checkpoint_every_arg)

let tpi_cmd =
  let points_arg =
    let doc = "Number of test points to select (greedy rounds)." in
    Arg.(value & opt (Cli.int_conv ~docv:"K" (Cli.check_positive "--points"))
           Tpi.default_options.Tpi.points
         & info [ "points"; "k" ] ~docv:"K" ~doc)
  in
  let budget_arg =
    let doc = "Candidate pool size: evaluate only the top $(docv) mined candidates." in
    Arg.(value & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--budget"))
           Tpi.default_options.Tpi.budget
         & info [ "budget" ] ~docv:"N" ~doc)
  in
  let tpi_shift_arg =
    let doc =
      "Mining shift for the risk analysis candidates are ranked under (default: chain length / \
       4, the lint default)."
    in
    Arg.(value & opt (some (Cli.int_conv ~docv:"S" Cli.check_shift)) None
         & info [ "shift" ] ~docv:"S" ~doc)
  in
  let po_taps_arg =
    let doc = "Also mine direct primary-output observation taps." in
    Arg.(value & flag & info [ "po-taps" ] ~doc)
  in
  let controls_arg =
    let doc = "Also mine control points (OR-force-1 / AND-force-0 behind a new input)." in
    Arg.(value & flag & info [ "controls" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Prove the accepted transform function-preserving with the equivalence checker (as \
       $(b,tvs equiv) would): original vs the circuit with every selected point inserted, \
       tpi_ctl_* tied to 0, tpi_po_*/tpi_obs_* as inclusion extras. Exit 1 if the proof fails."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run () () () spec scale points budget shift po_taps controls format verify =
    let c = load_circuit ?scale spec in
    let options = { Tpi.points; budget; shift; po_taps; controls } in
    match Tpi.run ~options c with
    | r ->
        (match format with
        | `Ascii -> print_string (Tpi.to_ascii r)
        | `Json -> print_endline (Tpi.to_json_string r));
        if verify then begin
          let cands = List.map (fun (p : Tpi.point) -> p.Tpi.candidate) r.Tpi.points in
          let transformed = Tvs_tpi.Transform.apply c cands in
          verify_gate ~what:"tpi" c transformed
        end
    | exception Circuit.Build_error msg ->
        prerr_endline ("tvs: " ^ msg);
        exit Cmd.Exit.some_error
  in
  Cmd.v
    (Cmd.info "tpi"
       ~doc:
         "ATPG-aware test-point insertion: mine candidates from the lint risk table, select \
          greedily by re-running the stitched flow, report hidden-to-caught conversions")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ circuit_arg $ Cli.scale
      $ points_arg $ budget_arg $ tpi_shift_arg $ po_taps_arg $ controls_arg $ format_arg
      $ verify_arg)

let table_cmd =
  let which =
    let doc = "Table number (1-5)." in
    Arg.(required & pos 0 (some (Cli.int_conv ~docv:"N" Cli.check_table)) None
         & info [] ~docv:"N" ~doc)
  in
  let circuits_arg =
    let doc = "Restrict to these profile circuits (comma-separated)." in
    Arg.(value & opt (some Cli.profiles) None & info [ "circuits" ] ~docv:"LIST" ~doc)
  in
  let run () () () n scale circuits =
    let text =
      match n with
      | 1 -> Experiments.table1 ()
      | 2 -> Experiments.table2 ?scale ?circuits ()
      | 3 -> Experiments.table3 ?scale ?circuits ()
      | 4 -> Experiments.table4 ?scale ?circuits ()
      | _ -> Experiments.table5 ?scale ?circuits ()
    in
    print_string text
  in
  Cmd.v (Cmd.info "table" ~doc:"Regenerate a paper table")
    Term.(const run $ obs_term $ Cli.cache $ Cli.jobs $ which $ Cli.scale $ circuits_arg)

let ablation_cmd =
  let circuit_arg =
    let doc = "Profile circuit for the ablations." in
    Arg.(value & opt Cli.profile "s953" & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let run () () scale circuit = print_string (Experiments.ablations ?scale ~circuit ()) in
  Cmd.v (Cmd.info "ablation" ~doc:"Run the design-choice ablations")
    Term.(const run $ obs_term $ Cli.jobs $ Cli.scale $ circuit_arg)

let misr_cmd =
  let circuit_arg =
    let doc = "Profile circuit for the study." in
    Arg.(value & opt Cli.profile "s953" & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let run () () scale circuit = print_string (Experiments.misr_study ?scale ~circuit ()) in
  Cmd.v (Cmd.info "misr" ~doc:"MISR aliasing and diagnosis-resolution study")
    Term.(const run $ obs_term $ Cli.jobs $ Cli.scale $ circuit_arg)

let comparison_cmd =
  let circuits_arg =
    let doc = "Profile circuits (comma-separated)." in
    Arg.(value & opt (some Cli.profiles) None & info [ "circuits" ] ~docv:"LIST" ~doc)
  in
  let run () () scale circuits =
    print_string (Experiments.comparison_study ?scale ?circuits ())
  in
  Cmd.v (Cmd.info "comparison" ~doc:"Static reordering vs stitched generation")
    Term.(const run $ obs_term $ Cli.jobs $ Cli.scale $ circuits_arg)

let diagnosis_cmd =
  let circuit_arg =
    let doc = "Profile circuit for the study." in
    Arg.(value & opt Cli.profile "s444" & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let run () () scale circuit = print_string (Experiments.diagnosis_study ?scale ~circuit ()) in
  Cmd.v (Cmd.info "diagnosis" ~doc:"Fault-dictionary diagnosis resolution study")
    Term.(const run $ obs_term $ Cli.jobs $ Cli.scale $ circuit_arg)

let randtest_cmd =
  let patterns_arg =
    let doc = "Number of LFSR patterns." in
    Arg.(value & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--patterns")) 256
         & info [ "patterns" ] ~docv:"N" ~doc)
  in
  let run () () patterns = print_string (Experiments.random_testability ~patterns ()) in
  Cmd.v (Cmd.info "randtest" ~doc:"LFSR random-pattern testability sweep")
    Term.(const run $ obs_term $ Cli.jobs $ patterns_arg)

(* The ATE program of one stitched run: the stitched schedule, then the
   traditional extras as full loads. [tvs export] writes it and [tvs xcheck]
   replays it; [tag] names the engine's RNG stream. *)
let stitched_program ~tag ~scheme ~selection ~shift (prep : Prep.t) =
  let c = prep.Prep.circuit in
  let r =
    or_die (fun () ->
        Experiments.run_engine ~scheme ?shift:(Option.map (fun s -> Policy.Fixed s) shift)
          ~selection ~label:tag prep)
  in
  let stitched =
    Tvs_scan.Tester_format.of_stitched ~chain_len:(Circuit.num_flops c)
      ~npi:(Circuit.num_inputs c) ~vectors:r.Tvs_core.Engine.stimuli
  in
  let extra_ops =
    List.concat_map
      (fun (v : Cube.vector) ->
        Tvs_scan.Protocol.load_ops ~fresh:v.Cube.scan @ [ Tvs_scan.Protocol.Capture v.Cube.pi ])
      r.Tvs_core.Engine.extra_stimuli
  in
  { stitched with Tvs_scan.Tester_format.ops = stitched.Tvs_scan.Tester_format.ops @ extra_ops }

let export_cmd =
  let out_arg =
    let doc = "Output file for the tester program." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let run () () spec scale scheme selection shift out =
    let program = stitched_program ~tag:"export" ~scheme ~selection ~shift (prep_of ?scale spec) in
    Tvs_scan.Tester_format.write_file out program;
    Printf.printf "wrote %s: %d shift cycles, %d captures\n" out
      (Tvs_scan.Tester_format.num_shift_cycles program)
      (Tvs_scan.Tester_format.num_captures program)
  in
  Cmd.v (Cmd.info "export" ~doc:"Run the stitched flow and write an ATE program file")
    Term.(
      const run $ obs_term $ Cli.jobs $ circuit_arg $ Cli.scale $ scheme_arg $ selection_arg
      $ shift_arg $ out_arg)

let emit_cmd =
  let out_arg =
    let doc = "Output Verilog file (default: standard output)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"OUT" ~doc)
  in
  let scan_flag =
    let doc =
      "Emit the scan-inserted view: flip-flops become tvs_sdff cells chained from a new scan_in \
       port to a new scan_out port, as a DFT tool would hand to the tester."
    in
    Arg.(value & flag & info [ "scan" ] ~doc)
  in
  let cells_arg =
    let doc = "Also write the behavioural tvs cell models (tvs_dff/tvs_sdff/tvs_mux2) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "cells" ] ~docv:"FILE" ~doc)
  in
  let verify_arg =
    let doc =
      "Re-parse the emitted Verilog and prove it equivalent to the source circuit with the \
       equivalence checker (scan pins are dropped on re-parse, so the scan view verifies \
       against the functional circuit). Exit 1 on any miscompare."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let run () spec scale scan cells verify out =
    let c = load_circuit ?scale spec in
    let e =
      try Tvs_verilog.Emitter.emit ~scan c
      with Invalid_argument msg ->
        prerr_endline ("tvs: " ^ msg);
        exit Cmd.Exit.cli_error
    in
    (match out with
    | None -> print_string e.Tvs_verilog.Emitter.text
    | Some path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc e.Tvs_verilog.Emitter.text);
        Printf.eprintf "tvs: wrote %s (module %s)\n" path e.Tvs_verilog.Emitter.module_name);
    Option.iter
      (fun path ->
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc Tvs_verilog.Emitter.cell_models);
        Printf.eprintf "tvs: wrote %s (cell models)\n" path)
      cells;
    if verify then begin
      match
        Tvs_verilog.Loader.parse_string ~format:Tvs_verilog.Loader.Verilog
          e.Tvs_verilog.Emitter.text
      with
      | reparsed -> verify_gate ~what:"emit" c reparsed
      | exception Tvs_netlist.Bench_format.Parse_error (line, msg) ->
          Printf.eprintf "tvs: emit verify: emitted Verilog does not re-parse (line %d): %s\n"
            line msg;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "emit" ~doc:"Render a circuit as structural Verilog (optionally scan-inserted)")
    Term.(
      const run $ obs_term $ circuit_arg $ Cli.scale $ scan_flag $ cells_arg $ verify_arg
      $ out_arg)

let equiv_cmd =
  let left_arg =
    let doc = "Reference (golden) circuit: a profile name, s27, fig1, or a netlist file." in
    Arg.(required & pos 0 (some circuit_conv) None & info [] ~docv:"LEFT" ~doc)
  in
  let right_arg =
    let doc = "Revised circuit to check against $(i,LEFT). Omit with $(b,--scan)." in
    Arg.(value & pos 1 (some circuit_conv) None & info [] ~docv:"RIGHT" ~doc)
  in
  let scan_flag =
    let doc =
      "Check $(i,LEFT) against its own scan-inserted form, proving the scan-mux rewrite \
       function-preserving under the automatic scan_en=0 tie."
    in
    Arg.(value & flag & info [ "scan" ] ~doc)
  in
  let budget_arg =
    let doc = "SAT decision budget per observation-point miter." in
    Arg.(value
         & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--budget"))
             Cec.default_options.Cec.budget
         & info [ "budget" ] ~docv:"N" ~doc)
  in
  let vectors_arg =
    let doc = "Random-simulation rounds for candidate-class discovery (63 patterns each)." in
    Arg.(value
         & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--vectors"))
             Cec.default_options.Cec.vectors
         & info [ "vectors" ] ~docv:"N" ~doc)
  in
  let scan_map_arg =
    let doc =
      "Pin ties applied before checking, comma-separated $(b,name=0|1) (e.g. \
       $(b,scan_en=0,test_mode=1)). The scan_en and tpi_ctl_* conventions are tied to 0 \
       automatically."
    in
    Arg.(value & opt (some string) None & info [ "scan-map" ] ~docv:"LIST" ~doc)
  in
  let run () () () left_spec right_spec scan scale format budget vectors scan_map =
    let left = load_circuit ?scale left_spec in
    let right =
      match (right_spec, scan) with
      | Some _, true ->
          prerr_endline "tvs: give either RIGHT or --scan, not both";
          exit Cmd.Exit.cli_error
      | Some spec, false -> load_circuit ?scale spec
      | None, true -> (
          try (Tvs_netlist.Scan_insert.insert left).Tvs_netlist.Scan_insert.circuit
          with Circuit.Build_error msg ->
            prerr_endline ("tvs: scan insertion failed: " ^ msg);
            exit Cmd.Exit.cli_error)
      | None, false ->
          prerr_endline "tvs: missing RIGHT circuit (or --scan)";
          exit Cmd.Exit.cli_error
    in
    let ties =
      match scan_map with
      | None -> []
      | Some s -> (
          match Cli.parse_ties s with
          | Ok l -> List.map (fun (name, value) -> { Cec.name; value }) l
          | Error msg ->
              prerr_endline ("tvs: " ^ msg);
              exit Cmd.Exit.cli_error)
    in
    let options = { Cec.budget; vectors; ties } in
    match Cec.check ~options left right with
    | r -> (
        (match format with
        | `Ascii -> print_string (Cec.to_ascii r)
        | `Json -> print_endline (Cec.to_json_string r));
        match r.Cec.verdict with
        | Cec.Equivalent -> ()
        | Cec.Inequivalent _ -> exit 1
        | Cec.Unknown _ -> exit 3)
    | exception Cec.Mismatch msg ->
        prerr_endline ("tvs: interface mismatch: " ^ msg);
        exit Cmd.Exit.some_error
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "SAT-sweeping combinational equivalence check of two netlists under the full-scan \
          abstraction. Exit status: 0 equivalent, 1 inequivalent (a simulation-confirmed \
          counterexample is printed), 3 undecided within the SAT budget.")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ left_arg $ right_arg $ scan_flag $ Cli.scale
      $ format_arg $ budget_arg $ vectors_arg $ scan_map_arg)

let xcheck_cmd =
  let workdir_arg =
    let doc =
      "Directory for the generated design/testbench/simulator artifacts (default: a fresh \
       directory under the system temp dir, printed and kept for inspection)."
    in
    Arg.(value & opt (some string) None & info [ "workdir" ] ~docv:"DIR" ~doc)
  in
  let require_flag =
    let doc =
      "Fail (exit 1) when no external simulator is installed, instead of skipping. CI sets this \
       so the cross-check can never silently stop running."
    in
    Arg.(value & flag & info [ "require" ] ~doc)
  in
  let run () () spec scale scheme selection shift workdir require =
    let prep = prep_of ?scale spec in
    let c = prep.Prep.circuit in
    (* Sequential circuits replay the exact stitched schedule the engine
       produced (the program [tvs export] writes); combinational circuits
       apply the baseline vectors. Either way the external simulator sees
       the stimulus the flow would really apply. *)
    let program =
      if Circuit.num_flops c > 0 then
        Tvs_verilog.Xcheck.Scan
          (stitched_program ~tag:"xcheck" ~scheme ~selection ~shift prep)
            .Tvs_scan.Tester_format.ops
      else
        Tvs_verilog.Xcheck.Comb
          (Array.to_list
             (Array.map (fun (v : Cube.vector) -> v.Cube.pi) prep.Prep.baseline.Baseline.vectors))
    in
    match Tvs_verilog.Xcheck.run ?workdir c program with
    | Tvs_verilog.Xcheck.Agree { observations } ->
        Printf.printf "xcheck %s: PASS — external simulation agrees on %d observation(s)\n"
          (Circuit.name c) observations
    | Tvs_verilog.Xcheck.Disagree { index; internal_; external_ } ->
        Printf.printf
          "xcheck %s: FAIL — divergence at observation %d: internal %S, external %S\n"
          (Circuit.name c) index internal_ external_;
        exit 1
    | Tvs_verilog.Xcheck.Skipped reason ->
        if require then begin
          Printf.eprintf "tvs: xcheck skipped but --require was given: %s\n" reason;
          exit 1
        end
        else Printf.printf "xcheck %s: SKIP — %s\n" (Circuit.name c) reason
    | Tvs_verilog.Xcheck.Tool_error msg ->
        prerr_endline ("tvs: xcheck tool failure: " ^ msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "xcheck"
       ~doc:
         "Cross-validate the internal simulator against iverilog: emit Verilog plus a \
          self-checking testbench for the stitched program and compare traces")
    Term.(
      const run $ obs_term $ Cli.jobs $ circuit_arg $ Cli.scale $ scheme_arg $ selection_arg
      $ shift_arg $ workdir_arg $ require_flag)

let fig1_cmd =
  let run () = print_string (Experiments.table1 ()) in
  Cmd.v (Cmd.info "fig1" ~doc:"Print the Section 3 worked example (Table 1)")
    Term.(const run $ obs_term)

let serve_cmd =
  let socket_arg =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let port_arg =
    let doc = "Listen on 127.0.0.1 at TCP port $(docv)." in
    Arg.(value & opt (some (Cli.int_conv ~docv:"PORT" Cli.check_port)) None
         & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let state_arg =
    let doc =
      "State directory for crash recovery (created if missing): large jobs checkpoint here, \
       inline netlists are persisted here, and $(b,*.ckpt) files found at startup are resumed \
       before the server accepts connections."
    in
    Arg.(value & opt (some string) None & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let threshold_arg =
    let doc =
      "Minimum collapsed-fault count for a job to checkpoint at all (smaller jobs rerun cheaper \
       than they checkpoint). Needs $(b,--state)."
    in
    Arg.(
      value
      & opt (Cli.int_conv ~docv:"N" (Cli.check_non_negative "--checkpoint-threshold")) 1000
      & info [ "checkpoint-threshold" ] ~docv:"N" ~doc)
  in
  let run () () () socket port state every threshold =
    let listen =
      match (socket, port) with
      | Some path, None -> Tvs_serve.Server.Unix_socket path
      | None, Some port -> Tvs_serve.Server.Tcp port
      | Some _, Some _ ->
          prerr_endline "tvs: serve takes --socket or --port, not both";
          exit Cmd.Exit.cli_error
      | None, None ->
          prerr_endline "tvs: serve needs --socket PATH or --port PORT";
          exit Cmd.Exit.cli_error
    in
    match
      Tvs_serve.Server.run ?state_dir:state ~checkpoint_every:every
        ~checkpoint_threshold:threshold
        ~on_ready:(fun () -> Printf.eprintf "tvs serve: listening\n%!")
        listen
    with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("tvs: " ^ msg);
        exit Cmd.Exit.some_error
    | exception Failure msg ->
        prerr_endline ("tvs: " ^ msg);
        exit Cmd.Exit.some_error
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Persistent stitching daemon: accepts jobs over a Unix or TCP socket (length-delimited \
          JSONL frames), dedupes identical jobs through the result cache, checkpoints large jobs \
          for restart recovery, and streams progress events")
    Term.(
      const run $ obs_term $ Cli.cache $ Cli.jobs $ socket_arg $ port_arg $ state_arg
      $ checkpoint_every_arg $ threshold_arg)

(* --version: the code generation (git revision when available) plus the two
   on-disk schema versions a deployment cares about — the store frame schema
   (checkpoints, cache entries) and the bench report JSON schema. *)
let version_string =
  Printf.sprintf "1.0.0+%s (store schema %d, report schema %d)"
    (Option.value ~default:"unknown" (Tvs_obs.Report.git_rev ()))
    Codec.schema_version Tvs_obs.Report.schema_version

let () =
  let info =
    Cmd.info "tvs" ~version:version_string
      ~doc:"Virtual test compression through test vector stitching (DATE 2003 reproduction)"
  in
  exit (Cmd.eval (Cmd.group info [ stats_cmd; lint_cmd; atpg_cmd; faultsim_cmd; stitch_cmd; resume_cmd; tpi_cmd; serve_cmd; table_cmd; ablation_cmd; misr_cmd; comparison_cmd; diagnosis_cmd; randtest_cmd; export_cmd; emit_cmd; equiv_cmd; xcheck_cmd; fig1_cmd ]))
