module Circuit = Tvs_netlist.Circuit
module Metrics = Tvs_obs.Metrics

(* Work metrics, recorded per run (not per event) so the observation cost is
   amortized over the whole chunk. These run inside pool workers; the
   per-domain shards merge by summation, so totals are identical for every
   jobs value. Baseline adoptions are jobs-dependent by nature (a jobs=1 run
   never adopts), hence unstable. *)
let m_runs = Metrics.counter "sim.event.runs"
let m_events = Metrics.counter "sim.event.events"
let m_gate_evals = Metrics.counter "sim.event.gate_evals"
let m_full_passes = Metrics.counter "sim.event.full_passes"
let m_adoptions = Metrics.counter ~stable:false "sim.event.baseline_adoptions"
let h_disturbed = Metrics.histogram "sim.event.disturbed_nets"

(* All static circuit structure lives in the shared flat {!Soa} table; this
   record only owns the mutable per-context scratch. *)
type t = {
  soa : Soa.t;
  good : int array;  (* lane-packed fault-free value per net, set by set_packed_stimulus *)
  values : int array;  (* working lane-packed values; equal to [good] between runs *)
  ov : Inject.t;
  (* Per-level pending stacks, capacity = level population. *)
  bucket : int array array;
  bucket_len : int array;
  scheduled : bool array;
  touched : int array;  (* stack of nets whose value deviates from [good] *)
  mutable touched_len : int;
  mutable stimulus_set : bool;
  mutable last_events : int;  (* net value changes in the last run *)
  mutable last_evals : int;  (* gate evaluations in the last run *)
}

let create ?soa circuit =
  let soa =
    match soa with
    | Some s ->
        if Soa.circuit s != circuit then invalid_arg "Event.create: soa built for another circuit";
        s
    | None -> Soa.create circuit
  in
  let n = Circuit.num_nets circuit in
  {
    soa;
    good = Array.make n 0;
    values = Array.make n 0;
    ov = Inject.create circuit;
    bucket = Array.map (fun cap -> Array.make (max cap 1) 0) soa.Soa.level_pop;
    bucket_len = Array.make (soa.Soa.depth + 1) 0;
    scheduled = Array.make n false;
    touched = Array.make n 0;
    touched_len = 0;
    stimulus_set = false;
    last_events = 0;
    last_evals = 0;
  }

let circuit t = Soa.circuit t.soa
let soa t = t.soa
let good t = t.good
let last_events t = t.last_events
let last_evals t = t.last_evals
let full_evals t = Soa.num_evals t.soa

(* Drop any override or deviation an aborted run left behind. *)
let reset t =
  Inject.clear t.ov;
  for k = 0 to t.touched_len - 1 do
    let net = t.touched.(k) in
    t.values.(net) <- t.good.(net)
  done;
  t.touched_len <- 0

(* One full fault-free pass over every lane at once; every later run
   against this stimulus only re-evaluates what it actually disturbs. *)
let set_packed_stimulus t ~pi ~state =
  let c = circuit t in
  if Array.length pi <> Circuit.num_inputs c then
    invalid_arg "Event.set_stimulus: pi length mismatch";
  if Array.length state <> Circuit.num_flops c then
    invalid_arg "Event.set_stimulus: state length mismatch";
  reset t;
  Array.iteri (fun i net -> t.good.(net) <- pi.(i) land Lanes.all_mask) (Circuit.inputs c);
  Array.iteri (fun i net -> t.good.(net) <- state.(i) land Lanes.all_mask) (Circuit.flops c);
  let soa = t.soa and good = t.good in
  let order = soa.Soa.order in
  (* Consts ride the same kernel (empty XOR fold + inversion word). *)
  for k = 0 to Array.length order - 1 do
    let net = Array.unsafe_get order k in
    Array.unsafe_set good net (Soa.eval soa good net)
  done;
  Array.blit t.good 0 t.values 0 (Array.length t.good);
  t.stimulus_set <- true;
  Metrics.incr m_full_passes

let set_stimulus t ~pi ~state =
  set_packed_stimulus t ~pi:(Array.map Lanes.broadcast pi) ~state:(Array.map Lanes.broadcast state)

(* Same contract as [set_packed_stimulus], but the fault-free pass is
   inherited from a sibling context by blitting its baseline — O(nets)
   copies instead of gate evaluations. This is what lets a domain pool
   evaluate the fault-free machine once and fan chunks out to per-domain
   contexts. *)
let adopt_baseline t ~from =
  if not from.stimulus_set then invalid_arg "Event.adopt_baseline: source has no stimulus";
  if circuit t != circuit from then invalid_arg "Event.adopt_baseline: circuit mismatch";
  reset t;
  Array.blit from.good 0 t.good 0 (Array.length t.good);
  Array.blit t.good 0 t.values 0 (Array.length t.good);
  t.stimulus_set <- true;
  Metrics.incr m_adoptions

let good_po t = Array.map (fun net -> t.good.(net) land 1 = 1) (Circuit.outputs (circuit t))
let good_capture t = Array.map (fun d -> t.good.(d) land 1 = 1) t.soa.Soa.flop_d

(* Unchecked accesses throughout the event machinery: every index is a net
   or level drawn from the circuit's own CSR tables, and every scratch array
   was sized from the same circuit in [create]. *)
let schedule t net =
  if not (Array.unsafe_get t.scheduled net) then begin
    Array.unsafe_set t.scheduled net true;
    let lvl = Array.unsafe_get t.soa.Soa.level_of net in
    let len = Array.unsafe_get t.bucket_len lvl in
    Array.unsafe_set (Array.unsafe_get t.bucket lvl) len net;
    Array.unsafe_set t.bucket_len lvl (len + 1)
  end

(* Commit a (possibly) new value for [net]; fire an event iff it changed. *)
let touch t net v =
  let old = Array.unsafe_get t.values net in
  if v <> old then begin
    if old = Array.unsafe_get t.good net then begin
      Array.unsafe_set t.touched t.touched_len net;
      t.touched_len <- t.touched_len + 1
    end;
    Array.unsafe_set t.values net v;
    t.last_events <- t.last_events + 1;
    let soa = t.soa in
    let sb = soa.Soa.sink_base in
    for s = Array.unsafe_get sb net to Array.unsafe_get sb (net + 1) - 1 do
      schedule t (Array.unsafe_get soa.Soa.sink s)
    done
  end

let compile t injections = Inject.compile t.ov injections

(* Evaluate every scheduled gate, level by level: a gate's fanins are all
   at strictly lower levels, so each pending gate is evaluated exactly once
   per run. *)
let settle t =
  let soa = t.soa in
  for lvl = 0 to soa.Soa.depth do
    let pending = t.bucket.(lvl) in
    (* [touch] only schedules at higher levels, so this length is final. *)
    let len = t.bucket_len.(lvl) in
    for k = 0 to len - 1 do
      let net = pending.(k) in
      t.scheduled.(net) <- false;
      t.last_evals <- t.last_evals + 1;
      let v =
        if Inject.sink_flagged t.ov net then Soa.eval_inject soa t.ov t.values net
        else Soa.eval soa t.values net
      in
      touch t net (Inject.apply_stem t.ov net v)
    done;
    t.bucket_len.(lvl) <- 0
  done

let start_run t =
  if not t.stimulus_set then invalid_arg "Event.run: set_stimulus first";
  t.last_events <- 0;
  t.last_evals <- 0

(* Shared front half of [run] and [run_diff]: install overrides, seed lane
   deviations, and settle. Leaves the disturbed values, the touched stack
   and the installed overrides in place for the caller to read; the caller
   must undo the overrides with [Inject.clear_plan] before [finish]. All
   validation happens before the install so no exception can leave
   overrides dangling. *)
let propagate t ?states ~(plan : Inject.plan) () =
  start_run t;
  let c = circuit t in
  (match states with
  | Some words when Array.length words <> Circuit.num_flops c ->
      invalid_arg "Event.run: states length mismatch"
  | Some _ | None -> ());
  Inject.install_plan t.ov plan;
  (* Seed 1: per-lane scan states deviating from the baseline. *)
  (match states with
  | None -> ()
  | Some words ->
      Array.iteri
        (fun i fnet -> touch t fnet (Inject.apply_stem t.ov fnet (words.(i) land Lanes.all_mask)))
        (Circuit.flops c));
  (* Seed 2: injection sites. Stem masks are pre-merged per unique net, so
     one touch per entry covers every lane; branch overrides fire their
     sink (scheduling dedupes, so repeated sinks are free). *)
  let soa = t.soa in
  let stems = plan.Inject.stems in
  for i = 0 to Array.length stems - 1 do
    let s = Array.unsafe_get stems i in
    touch t s (Inject.apply_stem t.ov s t.values.(s))
  done;
  Array.iter
    (fun sink -> if soa.Soa.is_gate.(sink) then schedule t sink)
    plan.Inject.branch_sinks;
  settle t

(* Shared back half: record work metrics and roll the working values back to
   the baseline for the next run. *)
let finish t =
  Metrics.incr m_runs;
  Metrics.add m_events t.last_events;
  Metrics.add m_gate_evals t.last_evals;
  Metrics.observe h_disturbed t.touched_len;
  for k = 0 to t.touched_len - 1 do
    let net = Array.unsafe_get t.touched k in
    Array.unsafe_set t.values net (Array.unsafe_get t.good net)
  done;
  t.touched_len <- 0

let run t ?states ~plan () =
  propagate t ?states ~plan ();
  let c = circuit t in
  let po = Array.map (fun net -> t.values.(net)) (Circuit.outputs c) in
  let flops = Circuit.flops c in
  let flop_d = t.soa.Soa.flop_d in
  let capture =
    Array.init (Array.length flops) (fun i ->
        Inject.fetch t.ov ~values:t.values ~sink:flops.(i) ~pin:0 flop_d.(i))
  in
  Inject.clear_plan t.ov plan;
  finish t;
  { Parallel.po; capture }

(* Lanes that differ from their own fault-free machine at some observation
   point, over [used]. Only disturbed nets can differ, so the scan is
   O(touched), not O(outputs + flops): a touched net contributes its
   deviation once if it is a primary output and once per flop that captures
   it — unless that flop observes its D net through a branch override,
   which can create or cancel a lane deviation and is therefore left to the
   caller. *)
let observed t ~used =
  let soa = t.soa in
  let diff = ref 0 in
  for k = 0 to t.touched_len - 1 do
    let net = Array.unsafe_get t.touched k in
    let d = (Array.unsafe_get t.values net lxor Array.unsafe_get t.good net) land used in
    if d <> 0 then begin
      if Array.unsafe_get soa.Soa.is_po net then diff := !diff lor d;
      let db = soa.Soa.dflop_base in
      for j = Array.unsafe_get db net to Array.unsafe_get db (net + 1) - 1 do
        if not (Inject.sink_flagged t.ov (Array.unsafe_get soa.Soa.dflop j)) then
          diff := !diff lor d
      done
    end
  done;
  !diff

let run_diff t ?states ~(plan : Inject.plan) ~used () =
  propagate t ?states ~plan ();
  let soa = t.soa in
  let diff = ref (observed t ~used) in
  let bsinks = plan.Inject.branch_sinks in
  for i = 0 to Array.length bsinks - 1 do
    let sink = Array.unsafe_get bsinks i in
    if soa.Soa.is_flop.(sink) then begin
      let stem = plan.Inject.branch_stems.(i) in
      let w = Inject.fetch t.ov ~values:t.values ~sink ~pin:plan.Inject.branch_pins.(i) stem in
      diff := !diff lor ((w lxor t.good.(stem)) land used)
    end
  done;
  Inject.clear_plan t.ov plan;
  finish t;
  !diff

(* A root flip needs no override: nothing below the root is disturbed, so
   the root is never re-evaluated and keeps its flipped value. *)
let run_flip t ~net ~lanes ~used =
  start_run t;
  touch t net (t.values.(net) lxor (lanes land Lanes.all_mask));
  settle t;
  let diff = observed t ~used in
  finish t;
  diff
