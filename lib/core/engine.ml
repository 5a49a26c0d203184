module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Podem = Tvs_atpg.Podem
module Cube = Tvs_atpg.Cube
module Scoap = Tvs_atpg.Scoap
module Generator = Tvs_atpg.Generator
module Cost = Tvs_scan.Cost
module Xor_scheme = Tvs_scan.Xor_scheme
module Rng = Tvs_util.Rng
module Metrics = Tvs_obs.Metrics
module Trace = Tvs_obs.Trace

(* Engine-level work metrics. All are driven from the submitting domain
   (the engine itself is single-domain; only fault-sim chunks fan out), so
   they are deterministic by construction. *)
let m_engine_runs = Metrics.counter "engine.runs"
let m_stitched_vectors = Metrics.counter "engine.stitched_vectors"
let m_extra_vectors = Metrics.counter "engine.extra_vectors"
let m_atpg_attempts = Metrics.counter "engine.atpg_attempts"

type config = {
  scheme : Xor_scheme.t;
  shift : Policy.shift_policy;
  selection : Policy.selection;
  podem : Podem.config;
  max_cycles : int;
  preflight : bool;
}

let stagnation_limit = 25
let max_targets_per_cycle = 25

let default_config ~chain_len =
  {
    scheme = Xor_scheme.Nxor;
    shift = Policy.default_variable ~chain_len;
    selection = Policy.Most_faults 5;
    podem = { Podem.default_config with backtrack_limit = 32 };
    max_cycles = 4000;
    preflight = false;
  }

type result = {
  schedule : Cost.schedule;
  stimuli : (bool array * bool array) list;
  extra_stimuli : Cube.vector list;
  stitched_vectors : int;
  extra_vectors : int;
  caught_stitched : int;
  caught_extra : int;
  total_faults : int;
  redundant : Fault.t list;
  aborted : Fault.t list;
  peak_hidden : int;
}

let coverage r =
  let considered = r.total_faults - List.length r.redundant in
  if considered <= 0 then 1.0
  else float_of_int (r.caught_stitched + r.caught_extra) /. float_of_int considered

(* A candidate vector produced for one target fault under the cycle's
   constraints, split into PI values and the fresh scan bits. *)
type candidate = { pi : bool array; fresh : bool array }

let make_candidate ~rng ~s cube =
  let vec = Cube.fill_random rng cube in
  { pi = vec.Cube.pi; fresh = Array.sub vec.Cube.scan 0 s }

(* Order in which targets are attempted this cycle. *)
let target_order ~rng ~hardness selection uncaught =
  let arr = Array.of_list uncaught in
  (match selection with
  | Policy.Hardness_order ->
      Array.sort (fun a b -> compare hardness.(b) hardness.(a)) arr
  | Policy.Random_order | Policy.Most_faults _ | Policy.Weighted _ -> Rng.shuffle rng arr);
  Array.to_list arr

let wanted_candidates = function
  | Policy.Random_order | Policy.Hardness_order -> 1
  | Policy.Most_faults k | Policy.Weighted k -> max 1 k

(* Greedy scores of a cycle's candidates: how many uncaught faults each
   candidate's vector differentiates, estimated on a fixed random sample of
   f_u (full classification per candidate would dominate the runtime on big
   circuits); [Weighted] sums SCOAP hardness instead of counting. All
   candidates are screened in one [detected_matrix] call: two or more
   candidates share one packed fault-free sweep and one root flip per
   fanout-free region, and a lone candidate is screened fault-parallel. A
   fault counts as differentiated iff its detection flag is set — exactly
   the [outcome <> Same] criterion of per-candidate scoring, so the scores
   (and therefore the selected candidate and every downstream byte) are
   unchanged. *)
let sample_size = 512

let score_candidates ~sim ~machine ~hardness selection ~sample candidates =
  match selection with
  | Policy.Random_order | Policy.Hardness_order -> List.map (fun _ -> 0) candidates
  | Policy.Most_faults _ | Policy.Weighted _ ->
      let faults = Array.map snd sample in
      let vectors =
        Array.of_list
          (List.map
             (fun cand ->
               let applied, _ =
                 Tvs_scan.Chain.shift (Cycle.good_contents machine) ~fresh:cand.fresh
               in
               (cand.pi, applied))
             candidates)
      in
      let matrix = Tvs_fault.Fault_sim.detected_matrix sim ~vectors faults in
      List.mapi
        (fun i _ ->
          let flags = matrix.(i) in
          let total = ref 0 in
          Array.iteri
            (fun k hit ->
              if hit then
                match selection with
                | Policy.Weighted _ -> total := !total + hardness.(fst sample.(k))
                | Policy.Random_order | Policy.Hardness_order | Policy.Most_faults _ ->
                    incr total)
            flags;
          !total)
        candidates

(* Everything the main loop mutates, beyond what the caller's inputs
   determine: enough to continue an interrupted run bit-identically. *)
type snapshot = {
  machine : Cycle.persisted;
  shifts_rev : int list;
  stimuli_rev : (bool array * bool array) list;
  peak_hidden : int;
  stagnant : int;
  current_s : int;
  rng_state : int64;
}

let run ?config ?(fallback = [||]) ?resume ?checkpoint ~rng ctx ~faults =
  Metrics.incr m_engine_runs;
  Trace.with_span "engine.run"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let c = Podem.circuit ctx in
  let chain_len = Circuit.num_flops c in
  let cfg = match config with Some cfg -> cfg | None -> default_config ~chain_len in
  (match cfg.shift with
  | Policy.Fixed s when s < 1 || s > chain_len ->
      failwith
        (Printf.sprintf "fixed shift %d is outside 1..%d, the scan chain length of %s" s chain_len
           (Circuit.name c))
  | Policy.Fixed _ | Policy.Variable _ -> ());
  if cfg.preflight then begin
    (* Cheap gate only (structural + constant propagation): an error-severity
       finding means the netlist cannot produce a meaningful run, so fail
       before any compute is invested. Warnings pass — several bundled
       circuits legitimately warn (fig1 has no primary inputs). *)
    let errs =
      List.filter
        (fun (d : Tvs_lint.Diagnostic.t) -> d.severity = Tvs_lint.Diagnostic.Error)
        (Tvs_lint.Lint.preflight c)
    in
    match errs with
    | [] -> ()
    | first :: _ ->
        failwith
          (Printf.sprintf "preflight lint failed on %s: %d error(s), first: [%s] %s"
             (Circuit.name c) (List.length errs) first.rule first.message)
  end;
  if chain_len = 0 then
    failwith
      (Printf.sprintf "%s has no flip-flops: the stitched flow needs a scan chain" (Circuit.name c));
  let machine = Cycle.create ~scheme:cfg.scheme c ~faults in
  let sim = Tvs_fault.Fault_sim.create c in
  let hardness =
    let guide = Podem.scoap ctx in
    Array.map (fun f -> Scoap.fault_hardness guide f) faults
  in
  let shifts = ref [] in
  let stimuli = ref [] in
  let peak_hidden = ref 0 in
  let stagnant = ref 0 in
  let current_s = ref (min chain_len (max 1 (Policy.initial_shift cfg.shift))) in
  (match resume with
  | None -> ()
  | Some s ->
      Cycle.restore machine s.machine;
      shifts := s.shifts_rev;
      stimuli := s.stimuli_rev;
      peak_hidden := s.peak_hidden;
      stagnant := s.stagnant;
      current_s := s.current_s;
      Rng.set_state rng s.rng_state);
  let take_snapshot () =
    {
      machine = Cycle.export machine;
      shifts_rev = !shifts;
      stimuli_rev = !stimuli;
      peak_hidden = !peak_hidden;
      stagnant = !stagnant;
      current_s = !current_s;
      rng_state = Rng.state rng;
    }
  in
  let finished () = Cycle.num_uncaught machine = 0 && Cycle.num_hidden machine = 0 in
  (* Produce candidate vectors for this cycle's shift size, or [None] if no
     target is generatable under the constraints. *)
  let collect_candidates s =
    Trace.with_span "engine.atpg" ~args:[ ("shift", string_of_int s) ]
    @@ fun () ->
    let constraints = Cycle.constraints_for machine ~s in
    let order = target_order ~rng ~hardness cfg.selection (Cycle.uncaught_indices machine) in
    let wanted = wanted_candidates cfg.selection in
    let max_tries =
      match cfg.shift with
      | Policy.Fixed _ -> 4 * max_targets_per_cycle
      | Policy.Variable _ -> max_targets_per_cycle
    in
    let rec gather acc found tries = function
      | [] -> acc
      | _ when found >= wanted || tries >= max_tries -> acc
      | idx :: rest -> (
          Metrics.incr m_atpg_attempts;
          match Podem.generate ~config:cfg.podem ~constraints ctx faults.(idx) with
          | Podem.Detected cube ->
              gather (make_candidate ~rng ~s cube :: acc) (found + 1) (tries + 1) rest
          | Podem.Untestable | Podem.Aborted -> gather acc found (tries + 1) rest)
    in
    List.rev (gather [] 0 0 order)
  in
  let apply_candidate s cand =
    let report =
      Trace.with_span "engine.stitch" ~args:[ ("shift", string_of_int s) ] (fun () ->
          Cycle.step machine ~pi:cand.pi ~fresh:cand.fresh)
    in
    shifts := s :: !shifts;
    stimuli := (cand.pi, cand.fresh) :: !stimuli;
    peak_hidden := max !peak_hidden (Cycle.num_hidden machine);
    (* Only catches count as progress: newly hidden faults can churn between
       f_h and f_u forever without any ever reaching the tester. *)
    if report.Cycle.caught_now = [] then incr stagnant else stagnant := 0
  in
  (* Main loop (Figure 2): iterate while uncaught faults remain and the
     stitched phase keeps making progress. *)
  let rec loop () =
    if
      finished ()
      || Cycle.num_uncaught machine = 0
      || Cycle.cycle_count machine >= cfg.max_cycles
      || !stagnant >= stagnation_limit
    then ()
    else
      let s = if Cycle.cycle_count machine = 0 then chain_len else !current_s in
      match collect_candidates s with
      | [] -> (
          match Policy.grow cfg.shift ~current:!current_s with
          | Some s' ->
              current_s := s';
              loop ()
          | None -> () (* stuck: hand the rest to the extra phase *))
      | first :: _ as candidates ->
          let best =
            match cfg.selection with
            | Policy.Random_order | Policy.Hardness_order -> first
            | Policy.Most_faults _ | Policy.Weighted _ ->
                let sample =
                  let uncaught = Array.of_list (Cycle.uncaught_indices machine) in
                  Rng.shuffle rng uncaught;
                  let k = min sample_size (Array.length uncaught) in
                  Array.init k (fun i -> (uncaught.(i), faults.(uncaught.(i))))
                in
                let scored =
                  List.map2
                    (fun sc cand -> (sc, cand))
                    (score_candidates ~sim ~machine ~hardness cfg.selection ~sample candidates)
                    candidates
                in
                List.fold_left
                  (fun (bs, bc) (sc, cand) -> if sc > bs then (sc, cand) else (bs, bc))
                  (List.hd scored) (List.tl scored)
                |> snd
          in
          apply_candidate s best;
          current_s := Policy.shrink cfg.shift ~current:!current_s;
          (* Snapshot between cycles: everything below this point is a pure
             function of the captured state and the caller's inputs. *)
          (match checkpoint with
          | Some (every, save) when every > 0 && Cycle.cycle_count machine mod every = 0 ->
              Trace.with_span "engine.checkpoint" (fun () -> save (take_snapshot ()))
          | Some _ | None -> ());
          loop ()
  in
  loop ();
  (* Final unload: a full drain when hidden faults remain to flush. *)
  let need_drain = Cycle.num_hidden machine > 0 in
  ignore (Cycle.flush machine ~full:need_drain);
  let caught_stitched = Cycle.num_caught machine in
  (* Extra phase: traditional full-shift vectors for the leftovers. *)
  let leftover_idx = Cycle.uncaught_indices machine in
  let leftover = Array.of_list (List.map (fun i -> faults.(i)) leftover_idx) in
  let extra_stimuli = ref [] in
  let extra_vectors, caught_extra, redundant, aborted =
    if Array.length leftover = 0 then (0, 0, [], [])
    else
      Trace.with_span "engine.extra"
        ~args:[ ("leftover", string_of_int (Array.length leftover)) ]
      @@ fun () ->
      begin
      let extra_podem = { cfg.podem with Podem.backtrack_limit = max 100 cfg.podem.Podem.backtrack_limit } in
      let options = { Generator.default_options with random_patterns = 0; podem = extra_podem } in
      let gen = Generator.generate ~options ~rng ctx leftover in
      (* Aborted leftovers are topped up from the known-good fallback set:
         append every fallback vector that is first to detect one. *)
      let missing = Array.of_list gen.Generator.aborted in
      let detected = Array.make (Array.length missing) false in
      let news =
        Tvs_fault.Fault_sim.drop_detected sim
          ~vectors:(Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) fallback)
          missing detected
      in
      extra_stimuli :=
        Array.to_list gen.Generator.vectors
        @ List.filteri (fun k _ -> news.(k) > 0) (Array.to_list fallback);
      let count = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 in
      ( List.length !extra_stimuli,
        count gen.Generator.detected + count detected,
        gen.Generator.redundant,
        List.filteri (fun k _ -> not detected.(k)) gen.Generator.aborted )
    end
  in
  Metrics.add m_stitched_vectors (List.length !shifts);
  Metrics.add m_extra_vectors extra_vectors;
  {
    schedule =
      {
        Cost.chain_len;
        npi = Circuit.num_inputs c;
        npo = Circuit.num_outputs c;
        shifts = List.rev !shifts;
        extra = extra_vectors;
        full_drain = need_drain;
      };
    stimuli = List.rev !stimuli;
    extra_stimuli = !extra_stimuli;
    stitched_vectors = List.length !shifts;
    extra_vectors;
    caught_stitched;
    caught_extra;
    total_faults = Array.length faults;
    redundant;
    aborted;
    peak_hidden = !peak_hidden;
  }
