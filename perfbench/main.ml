(* The repository benchmark. One workload per run:

     main.exe --tvs PATH --workload stitch|faultgrade|serve-mixed
              --seed N --seconds S --trace 0|1

   [--tvs] is the [tvs] CLI binary (run.sh passes the one it builds). The
   run measures for S seconds, checks every output, prints each metric by
   name with its unit, and ends stdout with one JSON line: the end-to-end
   metrics with [--trace 0], the per-layer metrics of a traced run with
   [--trace 1]. Exits 1 when a correctness check fails, 2 on bad
   arguments. See README.md. *)

let usage =
  "main.exe --tvs PATH --workload stitch|faultgrade|serve-mixed --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      prerr_endline ("usage: " ^ usage);
      exit 2)
    fmt

(* Every workload prints every metric of BENCHMARK.json, in this order and
   with these units; a layer a workload does not exercise reads 0. *)
let end_to_end =
  [
    ("setup_s", "s"); ("peak_rss_mb", "MB"); ("success_rate", "ratio"); ("work_s", "s");
    ("ops_per_s", "1/s"); ("p95_ms", "ms"); ("coverage", "ratio");
  ]

let per_layer =
  [
    ("prep.self_s", "s"); ("engine.atpg_s", "s"); ("engine.atpg_attempts", "count");
    ("engine.atpg_us_per_attempt", "us"); ("atpg.probe.calls", "count");
    ("atpg.probe.detected_share", "ratio"); ("atpg.probe.untestable_share", "ratio");
    ("atpg.probe.aborted_share", "ratio"); ("atpg.probe.us_detected", "us");
    ("atpg.probe.us_untestable", "us"); ("atpg.probe.us_aborted", "us");
    ("atpg.probe.aborted_time_share", "ratio"); ("engine.stitch_s", "s");
    ("engine.select_s", "s"); ("engine.extra_s", "s"); ("engine.self_s", "s");
    ("flow.self_s", "s"); ("cycle.steps", "count"); ("cycle.shift_bits_saved", "count");
    ("cycle.reverted", "count"); ("engine.stitched_vectors", "count");
    ("engine.extra_vectors", "count"); ("flow.m_ratio", "ratio"); ("flow.t_ratio", "ratio");
    ("faultsim.detected_faults_s", "s"); ("faultsim.detected_matrix_s", "s");
    ("faultsim.run_batch_s", "s"); ("faultsim.run_per_state_s", "s");
    ("faultsim.gate_evals", "count"); ("faultsim.events_fired", "count");
    ("faultsim.skip_ratio", "ratio"); ("faultsim.chunks", "count");
    ("faultsim.batches", "count"); ("sim.event.gate_evals", "count");
    ("sim.event.full_passes", "count"); ("sim.event.disturbed_nets_mean", "nets");
    ("grade.block_ms.p50", "ms"); ("grade.block_ms.p90", "ms");
    ("grade.live_faults_mean", "count"); ("serve.queue_wait_ms.p50", "ms");
    ("serve.queue_wait_ms.p95", "ms"); ("serve.hit_p50_ms", "ms");
    ("serve.hit_service_ms.p50", "ms"); ("serve.miss_service_ms.stitch", "ms");
    ("serve.miss_service_ms.equiv", "ms"); ("serve.restart_ms", "ms");
    ("serve.jobs.deduped", "count"); ("store.cache.hits", "count");
    ("store.cache.misses", "count"); ("store.cache.stores", "count");
    ("cec.sat.calls", "count"); ("cec.sat.decisions", "count"); ("cec.checks", "count");
    ("trace.layers_sum_s", "s"); ("trace.traced_work_s", "s"); ("trace.untraced_work_s", "s");
    ("trace.overhead_s", "s"); ("bench.speed_scale", "ratio");
  ]

(* The workload's metrics in the listed order at the reference speed,
   each checked against its listed unit; unmeasured per-layer metrics
   (absent or without samples) read 0, an unmeasured end-to-end metric is
   an error. *)
let complete ~layer ~scale listed (measured : Common.metric list) =
  List.iter
    (fun (m : Common.metric) ->
      match List.assoc_opt m.Common.name listed with
      | Some u when u = m.Common.unit -> ()
      | _ -> failwith (Printf.sprintf "metric %s [%s] is not listed" m.Common.name m.Common.unit))
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (m : Common.metric) -> m.Common.name = name) measured with
      | Some m when Float.is_finite m.Common.value -> Common.scaled scale m
      | Some _ | None ->
          if layer then Common.metric name unit 0.0
          else failwith (Printf.sprintf "%s was not measured" name))
    listed

let () =
  let tvs = ref "" and workload = ref "" in
  let seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let specs =
    [
      ("--tvs", Arg.Set_string tvs, "PATH the tvs CLI binary");
      ("--workload", Arg.Set_string workload, "NAME stitch, faultgrade or serve-mixed");
      ("--seed", Arg.Set_int seed, "N workload seed (0 = the CLI's engine label)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run printing per-layer metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> die "unexpected argument %S" a) usage with
  | Arg.Bad m -> die "%s" (List.hd (String.split_on_char '\n' m))
  | Arg.Help _ ->
      print_endline usage;
      exit 0);
  if !seed < 0 then die "--seed must be given and >= 0";
  if !seconds < 1 then die "--seconds must be given and >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists !tvs) then die "--tvs %S: no such file" !tvs;
  (* serve-mixed runs in a directory of its own *)
  let tvs = if Filename.is_relative !tvs then Filename.concat (Sys.getcwd ()) !tvs else !tvs in
  Tvs_util.Pool.set_default_jobs 1;
  let seed = !seed and seconds = float_of_int !seconds and trace = !trace = 1 in
  let run =
    match !workload with
    | "stitch" -> fun () -> W_stitch.run ~seed ~seconds ~trace ~tvs
    | "faultgrade" -> fun () -> W_faultgrade.run ~seed ~seconds ~trace
    | "serve-mixed" -> fun () -> W_serve.run ~seed ~seconds ~trace ~tvs
    | w -> die "unknown workload %S" w
  in
  match run () with
  | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
      exit 1
  | outcome -> (
      let checked () =
        if trace then
          {
            outcome with
            Common.per_layer =
              complete ~layer:true ~scale:outcome.Common.scale per_layer outcome.Common.per_layer;
          }
        else
          {
            outcome with
            Common.end_to_end =
              complete ~layer:false ~scale:outcome.Common.scale end_to_end
                outcome.Common.end_to_end;
          }
      in
      match checked () with
      | exception Failure m ->
          Printf.eprintf "perfbench: %s: %s\n%!" !workload m;
          exit 1
      | outcome -> if not (Common.print_outcome ~workload:!workload ~trace outcome) then exit 1)
