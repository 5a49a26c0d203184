(* Tests for Tvs_harness: per-circuit preparation (and its memoization) and
   the experiment runners' outputs. *)

module Circuit = Tvs_netlist.Circuit
module Baseline = Tvs_core.Baseline
module Prep = Tvs_harness.Prep
module Experiments = Tvs_harness.Experiments

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_prep_structure () =
  let prep = Prep.get "s444" in
  Alcotest.(check string) "circuit name" "s444" (Circuit.name prep.Prep.circuit);
  Alcotest.(check bool) "collapsed smaller than full" true
    (Array.length prep.Prep.faults < Array.length prep.Prep.all_faults);
  Alcotest.(check bool) "testable within collapsed" true
    (Array.length prep.Prep.testable <= Array.length prep.Prep.faults);
  Alcotest.(check bool) "baseline nonempty" true (prep.Prep.baseline.Baseline.num_vectors > 0)

let test_prep_memoized () =
  let a = Prep.get "s444" and b = Prep.get "s444" in
  Alcotest.(check bool) "same physical prep" true (a == b);
  let scaled = Prep.get ~scale:0.5 "s444" in
  Alcotest.(check bool) "scaled prep distinct" true (a != scaled);
  Alcotest.(check string) "scaled name" "s444@0.5" (Circuit.name scaled.Prep.circuit)

(* The memo holds [Prep.capacity] preparations: one insertion past that
   empties it, so the first circuit is prepared again. *)
let test_prep_memo_bounded () =
  let tiny k =
    Result.get_ok
      (Tvs_harness.Cli.inline_circuit
         (Printf.sprintf "# memo %d\nINPUT(a)\nOUTPUT(y)\nf = DFF(a)\ny = NOT(f)\n" k))
  in
  let first = tiny 0 in
  let a = Prep.memo first in
  Alcotest.(check bool) "held" true (a == Prep.memo first);
  for k = 1 to Prep.capacity do
    ignore (Prep.memo (tiny k))
  done;
  Alcotest.(check bool) "emptied when full" true (a != Prep.memo first)

let test_prep_seed_streams () =
  let prep = Prep.get "s444" in
  let a = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "x") in
  let b = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "y") in
  let a' = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "x") in
  Alcotest.(check bool) "labels separate streams" true (a <> b);
  Alcotest.(check int64) "same label, same stream" a a'

let test_run_flow_sane () =
  let prep = Prep.get "s444" in
  let r = Experiments.run_flow ~label:"harness-test" prep in
  Alcotest.(check bool) "coverage complete" true (r.Experiments.coverage >= 0.999);
  Alcotest.(check bool) "compresses memory" true (r.Experiments.m < 1.0);
  Alcotest.(check bool) "compresses time" true (r.Experiments.t < 1.0);
  Alcotest.(check int) "aTV consistent" prep.Prep.baseline.Baseline.num_vectors r.Experiments.atv

let test_run_flow_deterministic () =
  let prep = Prep.get "s444" in
  let a = Experiments.run_flow ~label:"det" prep in
  let b = Experiments.run_flow ~label:"det" prep in
  Alcotest.(check int) "same TV" a.Experiments.tv b.Experiments.tv;
  Alcotest.(check (float 0.00001)) "same m" a.Experiments.m b.Experiments.m

(* [tvs stitch NAME] summaries, pinned: integers exactly, floats bit for
   bit. Any change to ATPG, fault simulation or the engine that moves a
   search result moves one of these. *)
let golden_summaries =
  [
    ( "fig1",
      { Experiments.atv = 6; tv = 4; ex = 0; peak_hidden = 9;
        m = 0x1p-1; t = 0x1.2492492492492p-1; coverage = 0x1p+0 } );
    ( "s27",
      { Experiments.atv = 11; tv = 11; ex = 0; peak_hidden = 6;
        m = 0x1.637021d9ead7dp-1; t = 0x1.e38e38e38e38ep-2; coverage = 0x1p+0 } );
    ( "s444",
      { Experiments.atv = 71; tv = 62; ex = 0; peak_hidden = 44;
        m = 0x1.7ca44dc4c1262p-2; t = 0x1.190ee643b990fp-2; coverage = 0x1p+0 } );
    ( "s526",
      { Experiments.atv = 66; tv = 67; ex = 0; peak_hidden = 62;
        m = 0x1.fd90f5cf0552ep-2; t = 0x1.9560fa5c10bd4p-2; coverage = 0x1p+0 } );
    ( "s641",
      { Experiments.atv = 131; tv = 120; ex = 0; peak_hidden = 42;
        m = 0x1.417ef13b92a54p-1; t = 0x1.7d589984b2041p-3; coverage = 0x1p+0 } );
    ( "s953",
      { Experiments.atv = 153; tv = 171; ex = 1; peak_hidden = 63;
        m = 0x1.52eb1c601d415p-1; t = 0x1.6be146818c35ap-2; coverage = 0x1p+0 } );
    ( "s1196",
      { Experiments.atv = 143; tv = 166; ex = 0; peak_hidden = 41;
        m = 0x1.48479bbf8d6d3p-1; t = 0x1.ed097b425ed09p-3; coverage = 0x1p+0 } );
    ( "s1423",
      { Experiments.atv = 155; tv = 236; ex = 0; peak_hidden = 270;
        m = 0x1.6554d0afa7655p-1; t = 0x1.27f610ad267f6p-1; coverage = 0x1p+0 } );
  ]

let test_golden_summaries () =
  List.iter
    (fun (spec, (want : Experiments.run_summary)) ->
      let c = Result.get_ok (Tvs_harness.Cli.load_circuit spec) in
      let got = Experiments.run_flow ~label:"cli" (Prep.of_circuit c) in
      let int name f = Alcotest.(check int) (spec ^ " " ^ name) (f want) (f got) in
      let bits name f =
        Alcotest.(check string) (spec ^ " " ^ name) (Printf.sprintf "%h" (f want))
          (Printf.sprintf "%h" (f got))
      in
      int "aTV" (fun r -> r.Experiments.atv);
      int "TV" (fun r -> r.Experiments.tv);
      int "extra" (fun r -> r.Experiments.ex);
      int "peak hidden" (fun r -> r.Experiments.peak_hidden);
      bits "m" (fun r -> r.Experiments.m);
      bits "t" (fun r -> r.Experiments.t);
      bits "coverage" (fun r -> r.Experiments.coverage))
    golden_summaries

(* Cache keys, pinned: a refactor that moves one orphans every cache
   directory written before it (the s5378 entry is the file
   EXPR-v2-65b6cdf44d657d8a.tvsc). *)
let test_cache_keys_pinned () =
  let module Store_digest = Tvs_store.Digest in
  let circuit spec = Result.get_ok (Tvs_harness.Cli.load_circuit spec) in
  let check what want key = Alcotest.(check string) what want (Store_digest.to_hex key) in
  List.iter
    (fun (spec, want) ->
      check (spec ^ " run key") want (Experiments.run_key ~label:"cli" (circuit spec)))
    [
      ("s27", "0255fbc88b026fb4");
      ("s444", "e775e7de7d89586b");
      ("s1423", "7de8715a5e6ee22b");
      ("s5378", "65b6cdf44d657d8a");
    ];
  check "s444 VXOR, fixed shift 5" "d982deb92ed536e9"
    (Experiments.run_key ~scheme:Tvs_scan.Xor_scheme.Vxor ~shift:(Tvs_core.Policy.Fixed 5)
       ~label:"t3:VXOR" (circuit "s444"));
  List.iter
    (fun (spec, want) ->
      check (spec ^ " circuit digest") want (Store_digest.circuit (circuit spec)))
    [ ("s444", "77ca2bc52930492b"); ("s5378", "0c46a3985eb0da53") ]

let test_table1_text () =
  let out = Experiments.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table1 mentions " ^ needle) true (contains ~needle out))
    [ "correct"; "E-F/1"; "F/0"; "110"; "after final unload" ]

let test_table_defaults () =
  Alcotest.(check (float 0.0001)) "s9234 halved in tables 2-4" 0.5
    (Experiments.table24_default_scale "s9234");
  Alcotest.(check (float 0.0001)) "s444 full" 1.0 (Experiments.table24_default_scale "s444");
  Alcotest.(check (float 0.0001)) "giants quartered in table 5" 0.25
    (Experiments.table5_default_scale "s35932")

let test_small_table_renders () =
  let out = Experiments.table4 ~circuits:[ "s444" ] () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table4 column " ^ needle) true (contains ~needle out))
    [ "s444"; "Random"; "Hardness"; "Most-faults"; "Ave" ]

let test_randtest_small_budget () =
  (* Regression: a pattern budget below the fixed checkpoints must clamp
     them rather than crash. *)
  let out = Experiments.random_testability ~patterns:16 ~circuits:[ "s444" ] () in
  Alcotest.(check bool) "renders" true (contains ~needle:"cov@16" out);
  Alcotest.(check bool) "no oversized checkpoint" false (contains ~needle:"cov@128" out)

let test_comparison_renders () =
  let out = Experiments.comparison_study ~circuits:[ "s444" ] () in
  Alcotest.(check bool) "static columns present" true (contains ~needle:"static m" out);
  Alcotest.(check bool) "row present" true (contains ~needle:"s444" out)

(* Table 5 never wipes the process-wide [faultsim.*] counters: a second
   call adds to them. It prints no work of its own, so both calls print the
   same table. *)
let test_table5_footer_keeps_counters () =
  let gate_evals () = Tvs_obs.Metrics.(counter_value (counter "faultsim.gate_evals")) in
  let table5 () = Experiments.table5 ~scale:0.25 ~circuits:[ "s444" ] () in
  let g0 = gate_evals () in
  let first = table5 () in
  let g1 = gate_evals () in
  let second = table5 () in
  let g2 = gate_evals () in
  Alcotest.(check bool) "first call counted" true (g1 > g0);
  Alcotest.(check bool) "second call adds to the first" true (g2 > g1);
  Alcotest.(check string) "both calls print the same table" first second

(* [tvs stitch s27]'s run through [Experiments.stitch], with an optional
   checkpoint to resume and an optional writer. *)
let stitch_s27 ?(circuit = Tvs_circuits.S27.circuit ()) ?(scheme = Tvs_scan.Xor_scheme.Nxor)
    ?resume ?save () =
  Experiments.stitch ~spec:"s27" ~scale:1.0 ~scheme ~selection:(Tvs_core.Policy.Most_faults 5)
    ~shift:None ~label:"cli" ?resume
    ?save:(Option.map (fun save _ -> Some save) save)
    circuit

(* The summary of a run without a cache, and its first checkpoint. *)
let s27_first_checkpoint () =
  let first = ref None in
  match stitch_s27 ~save:(1, fun ck -> if !first = None then first := Some ck) () with
  | Error msg -> Alcotest.fail msg
  | Ok (summary, cached) ->
      Alcotest.(check bool) "no cache: not answered" false cached;
      (summary, Option.get !first)

(* A checkpoint saved on s27 resumes only into the run it was taken from:
   another circuit or another engine configuration is refused. *)
let test_checkpoint_identity () =
  let _, ck = s27_first_checkpoint () in
  let refused name ~needle = function
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
    | Error msg -> Alcotest.(check bool) (name ^ ": " ^ msg) true (contains ~needle msg)
  in
  refused "another circuit" ~needle:"circuit digest mismatch"
    (stitch_s27 ~circuit:(Prep.get "s444").Prep.circuit ~resume:ck ());
  refused "another scheme" ~needle:"configuration digest mismatch"
    (stitch_s27 ~scheme:Tvs_scan.Xor_scheme.Vxor ~resume:ck ());
  Alcotest.(check bool) "the original run" true (Result.is_ok (stitch_s27 ~resume:ck ()))

(* One cache lookup whatever the run: cold, [stitch] computes and the cache
   does not answer; warm, it answers with the same summary, and neither a
   writer nor a checkpoint to resume makes the engine run or the circuit be
   prepared (no PODEM call at all). *)
let test_stitch_one_lookup () =
  let module Cache = Tvs_store.Cache in
  let reference, ck = s27_first_checkpoint () in
  let dir = Filename.temp_file "tvs-harness-cache" "" in
  Sys.remove dir;
  Cache.install (Some (Result.get_ok (Cache.open_dir dir)));
  Fun.protect ~finally:(fun () -> Cache.install None) @@ fun () ->
  let run ?resume ?save () =
    match stitch_s27 ?resume ?save () with Ok r -> r | Error msg -> Alcotest.fail msg
  in
  let answered what (summary, cached) =
    Alcotest.(check bool) (what ^ ": same summary") true (summary = reference);
    Alcotest.(check bool) (what ^ ": the cache answered") true cached
  in
  let cold = run () in
  Alcotest.(check bool) "cold: computed" true (cold = (reference, false));
  answered "warm" (run ());
  let runs = Tvs_obs.Metrics.counter "engine.runs" in
  let calls = Tvs_obs.Metrics.counter "atpg.calls" in
  let runs0 = Tvs_obs.Metrics.counter_value runs and calls0 = Tvs_obs.Metrics.counter_value calls in
  let writes = ref 0 in
  answered "warm with a save" (run ~save:(1, fun _ -> incr writes) ());
  Alcotest.(check int) "warm with a save: the writer is never called" 0 !writes;
  Alcotest.(check int) "warm with a save: no engine run" runs0
    (Tvs_obs.Metrics.counter_value runs);
  answered "warm resumed" (run ~resume:ck ());
  Alcotest.(check int) "warm: no PODEM call" calls0 (Tvs_obs.Metrics.counter_value calls)

(* --- CLI validation ----------------------------------------------------- *)

module Cli = Tvs_harness.Cli

let test_cli_accepts_known_specs () =
  List.iter
    (fun spec ->
      match Cli.check_spec spec with
      | Ok s -> Alcotest.(check string) ("spec " ^ spec) spec s
      | Error msg -> Alcotest.fail (Printf.sprintf "%s rejected: %s" spec msg))
    [ "s27"; "fig1"; "s444"; "s38584" ]

let test_cli_rejects_bad_spec () =
  (* The bug this guards: unknown circuit specs used to die in [failwith],
     bypassing the drivers' error reporting. *)
  match Cli.check_spec "no-such-circuit" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error msg ->
      Alcotest.(check bool) "names the spec" true (contains ~needle:"no-such-circuit" msg);
      Alcotest.(check bool) "lists the profiles" true (contains ~needle:"s444" msg);
      (match Cli.load_circuit "no-such-circuit" with
      | Ok _ -> Alcotest.fail "bad spec loaded"
      | Error _ -> ())

let test_cli_loads_circuit () =
  match Cli.load_circuit ~scale:0.5 "s444" with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Alcotest.(check bool) "non-empty" true (Tvs_netlist.Circuit.num_nets c > 0)

let test_cli_table_and_jobs_bounds () =
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "table %d ok" n) true (Cli.check_table n = Ok n))
    [ 1; 3; 5 ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "table %d rejected" n)
        true
        (Result.is_error (Cli.check_table n)))
    [ 0; 6; -2 ];
  Alcotest.(check bool) "jobs 1 ok" true (Cli.check_jobs 1 = Ok 1);
  Alcotest.(check bool) "jobs 8 ok" true (Cli.check_jobs 8 = Ok 8);
  Alcotest.(check bool) "jobs 0 rejected" true (Result.is_error (Cli.check_jobs 0));
  Alcotest.(check bool) "scale 1.0 ok" true (Cli.check_scale 1.0 = Ok 1.0);
  Alcotest.(check bool) "scale 0.25 ok" true (Cli.check_scale 0.25 = Ok 0.25);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "scale %g rejected" f)
        true
        (Result.is_error (Cli.check_scale f)))
    [ 0.0; -0.5; 1.5; Float.nan ]

(* The --scale term both CLIs share: out-of-range values are usage
   errors at parse time, and an absent flag reads [None]. *)
let test_cli_scale_term () =
  let open Cmdliner in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let eval args =
    Cmd.eval_value ~err:quiet ~help:quiet
      ~argv:(Array.of_list ("t" :: args))
      (Cmd.v (Cmd.info "t") Cli.scale)
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) ("--scale " ^ v ^ " rejected") true
        (Result.is_error (eval [ "--scale=" ^ v ])))
    [ "1.5"; "0"; "-0.5"; "nan" ];
  Alcotest.(check bool) "--scale 0.25 reads Some 0.25" true
    (eval [ "--scale"; "0.25" ] = Ok (`Ok (Some 0.25)));
  Alcotest.(check bool) "absent reads None" true (eval [] = Ok (`Ok None))

let eval_term term args =
  let open Cmdliner in
  let quiet = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Cmd.eval_value ~err:quiet ~help:quiet
    ~argv:(Array.of_list ("t" :: args))
    (Cmd.v (Cmd.info "t") term)

let rejected what r = Alcotest.(check bool) (what ^ " rejected") true (Result.is_error r)

(* The profile converters the study commands share: one name, or a comma
   list in which every entry must name a profile. s27 and fig1 are circuits
   but have no profile. [--patterns] goes through [check_positive]. *)
let test_cli_profile_terms () =
  let open Cmdliner in
  let eval = eval_term in
  let one = Arg.(value & opt Cli.profile "s953" & info [ "circuit" ]) in
  let many = Arg.(value & opt (some Cli.profiles) None & info [ "circuits" ]) in
  let patterns =
    Arg.(value & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--patterns")) 256
         & info [ "patterns" ])
  in
  List.iter
    (fun v -> rejected ("--circuit " ^ v) (eval one [ "--circuit=" ^ v ]))
    [ "nope"; "s27"; "fig1"; "" ];
  Alcotest.(check bool) "--circuit s444" true (eval one [ "--circuit"; "s444" ] = Ok (`Ok "s444"));
  Alcotest.(check bool) "--circuit default" true (eval one [] = Ok (`Ok "s953"));
  List.iter
    (fun v -> rejected ("--circuits " ^ v) (eval many [ "--circuits=" ^ v ]))
    [ "nope"; "s444,,s27"; "s444,,"; ","; ""; "s444,s27" ];
  Alcotest.(check bool) "--circuits s444,s526" true
    (eval many [ "--circuits"; "s444,s526" ] = Ok (`Ok (Some [ "s444"; "s526" ])));
  List.iter
    (fun v -> rejected ("--patterns " ^ v) (eval patterns [ "--patterns=" ^ v ]))
    [ "0"; "-5"; "x" ];
  Alcotest.(check bool) "--patterns 32" true (eval patterns [ "--patterns"; "32" ] = Ok (`Ok 32));
  match Cli.check_profile "nope" with
  | Ok _ -> Alcotest.fail "nope accepted"
  | Error msg ->
      Alcotest.(check bool) "names the input" true (contains ~needle:"\"nope\"" msg);
      Alcotest.(check bool) "names the known profiles" true
        (List.for_all
           (fun p -> contains ~needle:p.Tvs_circuits.Profiles.name msg)
           Tvs_circuits.Profiles.all)

(* [tvs lint]'s SAT knobs: [--sat-faults] takes 0 (which disables the
   proofs) and up, [--sat-budget] 1 and up, as [tvs equiv --budget] does. *)
let test_cli_sat_terms () =
  let open Cmdliner in
  let faults =
    Arg.(value & opt (Cli.int_conv ~docv:"N" (Cli.check_non_negative "--sat-faults")) 8
         & info [ "sat-faults" ])
  in
  let budget =
    Arg.(value & opt (Cli.int_conv ~docv:"N" (Cli.check_positive "--sat-budget")) 1000
         & info [ "sat-budget" ])
  in
  List.iter (fun v -> rejected ("--sat-faults " ^ v) (eval_term faults [ "--sat-faults=" ^ v ]))
    [ "-1"; "x" ];
  Alcotest.(check bool) "--sat-faults 0" true (eval_term faults [ "--sat-faults=0" ] = Ok (`Ok 0));
  List.iter (fun v -> rejected ("--sat-budget " ^ v) (eval_term budget [ "--sat-budget=" ^ v ]))
    [ "-5"; "0"; "x" ];
  Alcotest.(check bool) "--sat-budget 1" true (eval_term budget [ "--sat-budget=1" ] = Ok (`Ok 1))

(* [tvs serve]'s integers are usage errors at parse time too:
   [--checkpoint-threshold] takes 0 and up, [--port] 1 to 65535. *)
let test_cli_serve_terms () =
  let open Cmdliner in
  let threshold =
    Arg.(value
         & opt (Cli.int_conv ~docv:"N" (Cli.check_non_negative "--checkpoint-threshold")) 1000
         & info [ "checkpoint-threshold" ])
  in
  let port =
    Arg.(value & opt (some (Cli.int_conv ~docv:"PORT" Cli.check_port)) None & info [ "port" ])
  in
  List.iter
    (fun v ->
      rejected ("--checkpoint-threshold " ^ v)
        (eval_term threshold [ "--checkpoint-threshold=" ^ v ]))
    [ "-1"; "x" ];
  Alcotest.(check bool) "--checkpoint-threshold 0" true
    (eval_term threshold [ "--checkpoint-threshold=0" ] = Ok (`Ok 0));
  List.iter (fun v -> rejected ("--port " ^ v) (eval_term port [ "--port=" ^ v ]))
    [ "0"; "70000"; "-1"; "x" ];
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "--port %d" n) true
        (eval_term port [ Printf.sprintf "--port=%d" n ] = Ok (`Ok (Some n))))
    [ 1; 65535 ]

let () =
  Alcotest.run "harness"
    [
      ( "prep",
        [
          Alcotest.test_case "structure" `Quick test_prep_structure;
          Alcotest.test_case "memoization" `Quick test_prep_memoized;
          Alcotest.test_case "seed streams" `Quick test_prep_seed_streams;
          Alcotest.test_case "memo is bounded" `Quick test_prep_memo_bounded;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "run_flow sanity" `Quick test_run_flow_sane;
          Alcotest.test_case "run_flow determinism" `Quick test_run_flow_deterministic;
          Alcotest.test_case "table 1 text" `Quick test_table1_text;
          Alcotest.test_case "default scales" `Quick test_table_defaults;
          Alcotest.test_case "table 4 rendering" `Quick test_small_table_renders;
          Alcotest.test_case "comparison rendering" `Quick test_comparison_renders;
          Alcotest.test_case "randtest small budget" `Quick test_randtest_small_budget;
          Alcotest.test_case "golden stitch summaries" `Quick test_golden_summaries;
          Alcotest.test_case "table 5 footer keeps counters" `Quick
            test_table5_footer_keeps_counters;
          Alcotest.test_case "checkpoint identity" `Quick test_checkpoint_identity;
          Alcotest.test_case "stitch makes one cache lookup" `Quick test_stitch_one_lookup;
          Alcotest.test_case "cache keys pinned" `Quick test_cache_keys_pinned;
        ] );
      ( "cli",
        [
          Alcotest.test_case "accepts known specs" `Quick test_cli_accepts_known_specs;
          Alcotest.test_case "rejects bad spec" `Quick test_cli_rejects_bad_spec;
          Alcotest.test_case "loads a profile" `Quick test_cli_loads_circuit;
          Alcotest.test_case "table and jobs bounds" `Quick test_cli_table_and_jobs_bounds;
          Alcotest.test_case "scale term" `Quick test_cli_scale_term;
          Alcotest.test_case "profile terms" `Quick test_cli_profile_terms;
          Alcotest.test_case "lint SAT terms" `Quick test_cli_sat_terms;
          Alcotest.test_case "serve integer terms" `Quick test_cli_serve_terms;
        ] );
    ]
