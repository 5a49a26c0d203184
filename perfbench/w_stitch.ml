(* Workload [stitch]: the cold one-shot flow, [Prep.of_circuit] then
   [Experiments.run_flow] with the defaults (NXOR, variable shift,
   most-faults:5), on s1423 then s5378 at full scale, no cache. One caller,
   closed loop: a round is both flows, and rounds repeat until the time is
   up.

   The seed picks the engine label, which seeds the engine's RNG; seed 0 is
   the CLI's label, so its summaries must equal [tvs stitch] byte for byte. *)

module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Circuit = Tvs_netlist.Circuit
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine
module Podem = Tvs_atpg.Podem
module Trace = Tvs_obs.Trace
module Metrics = Tvs_obs.Metrics
module Clock = Tvs_util.Clock
module Rng = Tvs_util.Rng

let circuit_names = [ "s1423"; "s5378" ]

type flow = { output : string; summary : Experiments.run_summary; seconds : float }

let flow ~label c =
  let summary, seconds =
    Clock.time_it (fun () -> Experiments.run_flow ~label (Prep.of_circuit c))
  in
  { output = Common.render c summary; summary; seconds }

(* --- outside probe of constrained PODEM ---------------------------------

   A checkpoint after every stitched cycle hands over the engine state.
   Restored into a private [Cycle.t], it yields the cycle's constraint cube
   for the next shift; PODEM is then called on a seeded sample of the
   cycle's uncaught faults, and each call's outcome and time are tallied.
   The probed flow must summarise exactly like the untraced one. *)

let probe_sample = 8

type tally = { mutable n : int; mutable us : float }

(* Probe outcomes, in this order. *)
let detected = 0 and untestable = 1 and aborted = 2

let probe ~seed ~label c =
  let prep = Prep.of_circuit c in
  let config = Experiments.config_for prep in
  let machine = Cycle.create ~scheme:config.Engine.scheme c ~faults:prep.Prep.testable in
  let rng = Rng.of_string (Printf.sprintf "probe:%s:%d" (Circuit.name c) seed) in
  let samples = ref [] in
  let save (snap : Engine.snapshot) =
    Cycle.restore machine snap.Engine.machine;
    let constraints = Cycle.constraints_for machine ~s:snap.Engine.current_s in
    let uncaught = Array.of_list (Cycle.uncaught_indices machine) in
    Rng.shuffle rng uncaught;
    let k = min probe_sample (Array.length uncaught) in
    samples := (constraints, Array.sub uncaught 0 k) :: !samples
  in
  let summary = Experiments.run_flow ~checkpoint:(1, save) ~label prep in
  let tallies = Array.init 3 (fun _ -> { n = 0; us = 0.0 }) in
  List.iter
    (fun (constraints, idxs) ->
      Array.iter
        (fun idx ->
          let r, dt =
            Clock.time_it (fun () ->
                Podem.generate ~config:config.Engine.podem ~constraints prep.Prep.ctx
                  prep.Prep.testable.(idx))
          in
          let t =
            tallies.(match r with
                     | Podem.Detected _ -> detected
                     | Podem.Untestable -> untestable
                     | Podem.Aborted -> aborted)
          in
          t.n <- t.n + 1;
          t.us <- t.us +. (dt *. 1e6))
        idxs)
    (List.rev !samples);
  (Common.render c summary, tallies)

(* --- the workload ------------------------------------------------------- *)

(* Stdout of [tvs stitch NAME] at one job. *)
let cli_stitch ~tvs name =
  let ic = Unix.open_process_args_in tvs [| tvs; "stitch"; name; "--jobs"; "1" |] in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with Unix.WEXITED 0 -> Ok out | _ -> Error "tvs stitch failed"

let run ~seed ~seconds ~trace ~tvs =
  let speed = Common.Speed.start () in
  let setup_s, circuits =
    Common.median_time 9 (fun () -> List.map (fun n -> Common.circuit n) circuit_names)
  in
  let label = Common.label ~seed 0 in
  let ops = Common.fresh_ops () in
  let reference = ref [] in
  let untraced = ref [] and traced = ref [] and flow_times = ref [] in
  let summaries = ref [] in
  let traced_layers = ref [] in
  let t0 = Clock.now () in
  let rec loop k =
    let traced_round = trace && k mod 2 = 1 in
    if traced_round then begin
      Metrics.reset ();
      Trace.start ()
    end;
    let flows, dt =
      Clock.time_it (fun () ->
          List.map
            (fun c ->
              ops.Common.attempted <- ops.Common.attempted + 1;
              match flow ~label c with
              | f -> Some f
              | exception e ->
                  Common.fail ops "%s raised %s" (Circuit.name c) (Printexc.to_string e);
                  None)
            circuits)
    in
    if traced_round then begin
      Trace.stop ();
      let self, select = Common.self_times (List.map Common.of_trace_span (Trace.spans ())) in
      traced_layers := (self, select, Common.registry ()) :: !traced_layers;
      traced := dt :: !traced
    end
    else untraced := dt :: !untraced;
    let outputs = List.map (Option.map (fun f -> f.output)) flows in
    (match !reference with
    | [] -> reference := outputs
    | r ->
        if r <> outputs then Common.fail ops "round %d printed a different summary than round 0" k);
    List.iter
      (Option.iter (fun f ->
           flow_times := f.seconds :: !flow_times;
           summaries := f.summary :: !summaries))
      flows;
    let elapsed = Clock.now () -. t0 in
    if elapsed < seconds || (trace && k < 1) then loop (k + 1)
  in
  loop 0;
  let measured = Clock.now () -. t0 in
  let scale, samples = Common.Speed.stop speed in
  Printf.printf "stitch: times scaled by %.4f (%d speed samples)\n" scale samples;
  let peak = Common.peak_rss_mb 0 in
  let reference = List.filter_map Fun.id !reference in
  (* Seed 0 runs the canonical circuits under the CLI's label: its summaries
     must match [tvs stitch] byte for byte. *)
  if seed = 0 then
    List.iter2
      (fun name out ->
        match cli_stitch ~tvs name with
        | Ok cli when cli = out -> ()
        | Ok _ -> Common.fail ops "summary differs from `tvs stitch %s`" name
        | Error m -> Common.fail ops "%s: %s" name m)
      circuit_names reference;
  let last = List.filteri (fun i _ -> i < List.length circuits) !summaries in
  let coverage = List.fold_left (fun acc s -> min acc s.Experiments.coverage) 1.0 last in
  let end_to_end =
    let rounds = !untraced in
    Common.
      [
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" peak;
        metric "success_rate" "ratio" (success_rate ops);
        metric "work_s" "s" (median rounds);
        metric "ops_per_s" "1/s" (ratio (float_of_int (List.length rounds)) measured);
        metric "p95_ms" "ms" (1000.0 *. percentile 95.0 !flow_times);
        metric "coverage" "ratio" coverage;
      ]
  in
  let per_layer =
    if not trace then []
    else begin
      (* Deterministic counters must repeat exactly across traced rounds. *)
      let regs = List.map (fun (_, _, r) -> r) !traced_layers in
      let pick reg name = Option.value ~default:0.0 (List.assoc_opt name reg) in
      (match regs with
      | r :: rest ->
          List.iter
            (fun r' ->
              List.iter
                (fun name ->
                  if pick r name <> pick r' name then
                    Common.fail ops "counter %s differs between rounds" name)
                [
                  "cycle.steps"; "cycle.shift_bits_saved"; "cycle.reverted"; "engine.atpg_attempts";
                ])
            rest
      | [] -> ());
      let reg = match regs with r :: _ -> r | [] -> [] in
      let span_med name =
        Common.median
          (List.map
             (fun (self, _, _) -> Option.value ~default:0.0 (Hashtbl.find_opt self name))
             !traced_layers)
      in
      let select = Common.median (List.map (fun (_, s, _) -> s) !traced_layers) in
      (* every span of a round is a layer boundary: the self times add up to
         the traced round's wall time, less the gaps between flows *)
      let layers_sum =
        Common.median
          (List.map
             (fun (self, _, _) -> Hashtbl.fold (fun _ v acc -> acc +. v) self 0.0)
             !traced_layers)
      in
      let probes = List.map2 (fun c out -> (c, out, probe ~seed ~label c)) circuits reference in
      List.iter
        (fun (c, out, (probed, _)) ->
          if probed <> out then Common.fail ops "%s: probed flow summary differs" (Circuit.name c))
        probes;
      let sum f = List.fold_left (fun acc (_, _, (_, t)) -> acc +. f t) 0.0 probes in
      let n o = sum (fun t -> float_of_int t.(o).n) and us o = sum (fun t -> t.(o).us) in
      let calls = n detected +. n untestable +. n aborted in
      let atpg_s = span_med "engine.atpg" in
      let attempts = pick reg "engine.atpg_attempts" in
      let skipped = pick reg "faultsim.gates_skipped" and evals = pick reg "faultsim.gate_evals" in
      let work = Common.median !untraced and traced_work = Common.median !traced in
      let mean_of f = Common.mean (List.map f last) in
      Common.
        [
          metric "prep.self_s" "s" (span_med "prep");
          metric "engine.atpg_s" "s" atpg_s;
          metric "engine.atpg_attempts" "count" attempts;
          metric "engine.atpg_us_per_attempt" "us" (1e6 *. ratio atpg_s attempts);
          metric "atpg.probe.calls" "count" calls;
          metric "atpg.probe.detected_share" "ratio" (ratio (n detected) calls);
          metric "atpg.probe.untestable_share" "ratio" (ratio (n untestable) calls);
          metric "atpg.probe.aborted_share" "ratio" (ratio (n aborted) calls);
          metric "atpg.probe.us_detected" "us" (ratio (us detected) (n detected));
          metric "atpg.probe.us_untestable" "us" (ratio (us untestable) (n untestable));
          metric "atpg.probe.us_aborted" "us" (ratio (us aborted) (n aborted));
          metric "atpg.probe.aborted_time_share" "ratio"
            (ratio (us aborted) (us detected +. us untestable +. us aborted));
          metric "engine.stitch_s" "s" (span_med "engine.stitch");
          metric "engine.select_s" "s" select;
          metric "engine.extra_s" "s" (span_med "engine.extra");
          metric "engine.self_s" "s" (span_med "engine.run");
          metric "flow.self_s" "s" (span_med "flow");
          metric "cycle.steps" "count" (pick reg "cycle.steps");
          metric "cycle.shift_bits_saved" "count" (pick reg "cycle.shift_bits_saved");
          metric "cycle.reverted" "count" (pick reg "cycle.reverted");
          metric "engine.stitched_vectors" "count" (pick reg "engine.stitched_vectors");
          metric "engine.extra_vectors" "count" (pick reg "engine.extra_vectors");
          metric "flow.m_ratio" "ratio" (mean_of (fun s -> s.Experiments.m));
          metric "flow.t_ratio" "ratio" (mean_of (fun s -> s.Experiments.t));
          metric "faultsim.detected_faults_s" "s" (span_med "faultsim.detected_faults");
          metric "faultsim.detected_matrix_s" "s" (span_med "faultsim.detected_matrix");
          metric "faultsim.run_batch_s" "s" (span_med "faultsim.run_batch");
          metric "faultsim.run_per_state_s" "s" (span_med "faultsim.run_per_state");
          metric "faultsim.gate_evals" "count" evals;
          metric "faultsim.events_fired" "count" (pick reg "faultsim.events_fired");
          metric "faultsim.skip_ratio" "ratio" (ratio skipped (skipped +. evals));
          metric "faultsim.chunks" "count" (pick reg "faultsim.chunks");
          metric "faultsim.batches" "count" (pick reg "faultsim.batches");
          metric "sim.event.gate_evals" "count" (pick reg "sim.event.gate_evals");
          metric "sim.event.full_passes" "count" (pick reg "sim.event.full_passes");
          metric "sim.event.disturbed_nets_mean" "nets" (pick reg "sim.event.disturbed_nets_mean");
          metric "trace.layers_sum_s" "s" layers_sum;
          metric "trace.traced_work_s" "s" traced_work;
          metric "trace.untraced_work_s" "s" work;
          metric "trace.overhead_s" "s" (traced_work -. work);
          metric "bench.speed_scale" "ratio" scale;
        ]
    end
  in
  { Common.ops; scale; end_to_end; per_layer }
