(* Workload [faultgrade]: grade a seeded random vector set against the
   collapsed fault list of s38417@0.25. A pass calls
   [Fault_sim.detected_matrix] block by block and drops detected faults
   between blocks; passes repeat until the time is up. No ATPG runs here.
   The seed picks the vectors. *)

module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Lanes = Tvs_sim.Lanes
module Trace = Tvs_obs.Trace
module Metrics = Tvs_obs.Metrics
module Clock = Tvs_util.Clock
module Rng = Tvs_util.Rng

let circuit_name = "s38417"
let scale = 0.25
let num_vectors = 8192
let block = 256
let checks_per_pass = 64

type input = { c : Circuit.t; faults : Fault.t array; vectors : (bool array * bool array) array }

let make_input ~seed =
  let c = Common.circuit ~scale circuit_name in
  let faults = Tvs_fault.Fault_gen.collapsed c in
  let rng = Rng.of_string (Printf.sprintf "faultgrade:%d" seed) in
  let vectors =
    Array.init num_vectors (fun _ ->
        ( Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng),
          Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) ))
  in
  { c; faults; vectors }

type pass = {
  detected : int;
  block_s : float list;
  live : int list;  (** live faults entering each block *)
  samples : (int * int * bool) list;  (** (vector, fault, flag) drawn for the oracle *)
}

(* One grading pass over the whole vector set. A seeded sample of the
   (vector, fault) detections it computes is kept for the oracle. *)
let grade ~rng input =
  let sim = Fault_sim.create input.c in
  let live = ref (Array.init (Array.length input.faults) Fun.id) in
  let block_s = ref [] and lives = ref [] and samples = ref [] in
  let nblocks = (num_vectors + block - 1) / block in
  for b = 0 to nblocks - 1 do
    if Array.length !live > 0 then begin
      let lo = b * block in
      let vectors = Array.sub input.vectors lo (min block (num_vectors - lo)) in
      let faults = Array.map (fun i -> input.faults.(i)) !live in
      let matrix, dt = Clock.time_it (fun () -> Fault_sim.detected_matrix sim ~vectors faults) in
      block_s := dt :: !block_s;
      lives := Array.length faults :: !lives;
      for _ = 1 to checks_per_pass / nblocks do
        let v = Rng.int rng (Array.length vectors) and f = Rng.int rng (Array.length faults) in
        samples := (lo + v, !live.(f), matrix.(v).(f)) :: !samples
      done;
      let hit = Array.make (Array.length faults) false in
      Array.iter (Array.iteri (fun i d -> if d then hit.(i) <- true)) matrix;
      live := Array.of_list (List.filteri (fun i _ -> not hit.(i)) (Array.to_list !live))
    end
  done;
  {
    detected = Array.length input.faults - Array.length !live;
    block_s = List.rev !block_s;
    live = List.rev !lives;
    samples = !samples;
  }

(* The oracle: one levelized pass of [Parallel.run] with the fault injected
   in lane 1 next to the fault-free lane 0, compared on every output and
   captured cell. *)
let oracle par input (v, f, _) =
  let pi, state = input.vectors.(v) in
  let word b = if b then Lanes.all_mask else 0 in
  let r =
    Parallel.run par ~pi:(Array.map word pi) ~state:(Array.map word state)
      ~injections:[ Fault.to_injection input.faults.(f) ~lane:1 ]
  in
  let differs w = Lanes.get w 0 <> Lanes.get w 1 in
  Array.exists differs r.Parallel.po || Array.exists differs r.Parallel.capture

let run ~seed ~seconds ~trace =
  let speed = Common.Speed.start () in
  let setup_s, input = Common.median_time 5 (fun () -> make_input ~seed) in
  let par = Parallel.create input.c in
  let rng = Rng.of_string (Printf.sprintf "faultgrade-oracle:%d" seed) in
  let ops = Common.fresh_ops () in
  let untraced = ref [] and traced = ref [] and blocks = ref [] and lives = ref [] in
  let pass_p95 = ref [] in
  let detected = ref None and traced_layers = ref [] in
  let t0 = Clock.now () in
  let rec loop k =
    let traced_pass = trace && k mod 2 = 1 in
    if traced_pass then begin
      Metrics.reset ();
      Trace.start ()
    end;
    let p, dt = Clock.time_it (fun () -> grade ~rng input) in
    if traced_pass then begin
      Trace.stop ();
      let self, _ = Common.self_times (List.map Common.of_trace_span (Trace.spans ())) in
      traced_layers := (self, Common.registry ()) :: !traced_layers;
      traced := dt :: !traced
    end
    else begin
      untraced := dt :: !untraced;
      pass_p95 := Common.percentile 95.0 p.block_s :: !pass_p95
    end;
    ops.Common.attempted <- ops.Common.attempted + List.length p.block_s;
    blocks := p.block_s @ !blocks;
    lives := List.map float_of_int p.live @ !lives;
    (match !detected with
    | None -> detected := Some p.detected
    | Some d when d = p.detected -> ()
    | Some d -> Common.fail ops "pass %d detected %d faults, pass 0 detected %d" k p.detected d);
    List.iter
      (fun ((v, f, flag) as s) ->
        if oracle par input s <> flag then
          Common.fail ops "vector %d, fault %d: matrix says %b, Parallel.run disagrees" v f flag)
      p.samples;
    if Clock.now () -. t0 < seconds || (trace && k < 1) then loop (k + 1)
  in
  loop 0;
  let measured = Clock.now () -. t0 in
  let scale, samples = Common.Speed.stop speed in
  let nfaults = Array.length input.faults in
  let detected = Option.value ~default:0 !detected in
  Printf.printf "faultgrade: %d vectors x %d collapsed faults of %s, %d detected\n" num_vectors
    nfaults (Circuit.name input.c) detected;
  Printf.printf "faultgrade: times scaled by %.4f (%d speed samples)\n" scale samples;
  let end_to_end =
    Common.
      [
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (peak_rss_mb 0);
        metric "success_rate" "ratio" (success_rate ops);
        metric "work_s" "s" (median !untraced);
        metric "ops_per_s" "1/s" (ratio (float_of_int (List.length !untraced)) measured);
        (* Per pass, not over all blocks of the run: block 0 (every fault
           live) is ten times the others, and how many passes fit decides
           where a run-wide rank would fall among them. *)
        metric "p95_ms" "ms" (1000.0 *. median !pass_p95);
        metric "coverage" "ratio" (ratio (float_of_int detected) (float_of_int nfaults));
      ]
  in
  let per_layer =
    if not trace then []
    else begin
      let reg = match !traced_layers with (_, r) :: _ -> r | [] -> [] in
      let pick name = Option.value ~default:0.0 (List.assoc_opt name reg) in
      let span_med name =
        Common.median
          (List.map
             (fun (self, _) -> Option.value ~default:0.0 (Hashtbl.find_opt self name))
             !traced_layers)
      in
      let skipped = pick "faultsim.gates_skipped" and evals = pick "faultsim.gate_evals" in
      let work = Common.median !untraced and traced_work = Common.median !traced in
      Common.
        [
          metric "faultsim.detected_matrix_s" "s" (span_med "faultsim.detected_matrix");
          metric "faultsim.gate_evals" "count" evals;
          metric "faultsim.events_fired" "count" (pick "faultsim.events_fired");
          metric "faultsim.skip_ratio" "ratio" (ratio skipped (skipped +. evals));
          metric "faultsim.chunks" "count" (pick "faultsim.chunks");
          metric "faultsim.batches" "count" (pick "faultsim.batches");
          metric "sim.event.gate_evals" "count" (pick "sim.event.gate_evals");
          metric "sim.event.full_passes" "count" (pick "sim.event.full_passes");
          metric "sim.event.disturbed_nets_mean" "nets" (pick "sim.event.disturbed_nets_mean");
          metric "grade.block_ms.p50" "ms" (1000.0 *. median !blocks);
          metric "grade.block_ms.p90" "ms" (1000.0 *. percentile 90.0 !blocks);
          metric "grade.live_faults_mean" "count" (mean !lives);
          metric "trace.traced_work_s" "s" traced_work;
          metric "trace.untraced_work_s" "s" work;
          metric "trace.overhead_s" "s" (traced_work -. work);
          metric "bench.speed_scale" "ratio" scale;
        ]
    end
  in
  { Common.ops; scale; end_to_end; per_layer }
