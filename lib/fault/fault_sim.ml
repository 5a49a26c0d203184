module Event = Tvs_sim.Event
module Lanes = Tvs_sim.Lanes
module Soa = Tvs_sim.Soa
module Circuit = Tvs_netlist.Circuit
module Pool = Tvs_util.Pool
module Metrics = Tvs_obs.Metrics
module Trace = Tvs_obs.Trace

type outcome = Same | Po_detected | Capture_differs of bool array

type frame = { po : bool array; capture : bool array }

type batch_result = { good : frame; outcomes : outcome array }

(* Per-slot engines for pool fan-out. The engine is documented not
   thread-safe, so each pool slot — one fixed domain — owns a private
   context; slot 0 aliases the submitter's own. Built on the first fan-out
   and reused for the context's lifetime. *)
type fanout = { pool : Pool.t; slots : Event.t Lazy.t array }

(* A fault array's chunk order and the per-chunk injection plans compiled
   under it (see [prepare]). *)
type prepared = { order : int array; plans : Tvs_sim.Inject.plan array }

(* Counting-sort tables for [chunk_order]: every net's position in
   [(Circuit.cone_rep net, net)] order, and a zeroed scratch of one bucket
   per net. *)
type ranks = { rank : int array; buckets : int array }

type t = {
  ev : Event.t;
  jobs : int;
  mutable fanout : fanout option;
  ranks : ranks Lazy.t;  (* forced on the submitter by the first large [prepare] *)
}

(* A stable sort of the nets (ascending) by cone representative lists them
   in [(cone_rep, net)] order. *)
let cone_ranks c =
  let n = Circuit.num_nets c in
  let by_cone = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare (Circuit.cone_rep c a) (Circuit.cone_rep c b)) by_cone;
  let rank = Array.make n 0 in
  Array.iteri (fun r net -> rank.(net) <- r) by_cone;
  { rank; buckets = Array.make (n + 1) 0 }

let create ?jobs circuit =
  let jobs = max 1 (match jobs with Some j -> j | None -> Pool.default_jobs ()) in
  { ev = Event.create circuit; jobs; fanout = None; ranks = lazy (cone_ranks circuit) }

let circuit t = Event.circuit t.ev

type counters = {
  event_runs : int;
  events_fired : int;
  gate_evals : int;
  gates_skipped : int;
  faults_dropped : int;
}

(* The historical global counter record now lives in the metrics registry:
   workers record into their own domain shards (lock-free), and the record is
   rebuilt on demand by summing shards. Pool completion gives the submitter a
   happens-before edge over every worker write, so a snapshot taken between
   batches sees exact totals. *)
let m_events_fired = Metrics.counter "faultsim.events_fired"
let m_gate_evals = Metrics.counter "faultsim.gate_evals"
let m_gates_skipped = Metrics.counter "faultsim.gates_skipped"
let m_faults_dropped = Metrics.counter "faultsim.faults_dropped"
let m_chunks = Metrics.counter "faultsim.chunks"
let m_batches = Metrics.counter "faultsim.batches"

let counters () =
  {
    event_runs = Metrics.counter_value m_chunks;
    events_fired = Metrics.counter_value m_events_fired;
    gate_evals = Metrics.counter_value m_gate_evals;
    gates_skipped = Metrics.counter_value m_gates_skipped;
    faults_dropped = Metrics.counter_value m_faults_dropped;
  }

let note_dropped n = Metrics.add m_faults_dropped n

let chunk_size = Lanes.width - 1 (* lane 0 is the fault-free machine *)

let num_chunks n = (n + chunk_size - 1) / chunk_size

(* Per-lane difference masks against lane 0 for one array of result words. *)
let diff_mask words used_mask =
  let acc = ref 0 in
  Array.iter
    (fun w ->
      let ref0 = - (w land 1) land Lanes.all_mask in
      acc := !acc lor ((w lxor ref0) land used_mask))
    words;
  !acc

let outcomes_of_run (r : Tvs_sim.Parallel.result) ~nfaults =
  let used = Lanes.mask (nfaults + 1) in
  let po_diff = diff_mask r.po used in
  let cap_diff = diff_mask r.capture used in
  Array.init nfaults (fun i ->
      let lane = i + 1 in
      if Lanes.get po_diff lane then Po_detected
      else if Lanes.get cap_diff lane then
        Capture_differs (Array.map (fun w -> Lanes.get w lane) r.capture)
      else Same)

(* Chunking order: faults whose cones overlap share a chunk, so each chunk's
   event activity stays confined to a few cones instead of spraying one cone
   per lane across the whole circuit. Faults are ordered by their stem's
   cone representative (the lowest-numbered observation point a stem
   reaches), then by stem, then by position in [faults]: overlapping cones
   cluster, and stems of one sub-cone sit next to each other. A stem's rank
   already encodes the first two keys, so a stable counting sort of the
   positions by rank yields the order in O(n + nets) — no more than the
   fault-free pass each call makes anyway.

   The permutation is a performance hint only — outcomes are mapped back
   through it, so any order is correct. *)
let chunk_order t (faults : Fault.t array) =
  let n = Array.length faults in
  if n <= chunk_size then Array.init n Fun.id
  else begin
    let { rank; buckets } = Lazy.force t.ranks in
    (* Zeroed again however the sort ends: a fault whose stem is not a net
       of the circuit raises midway, and stale counts would corrupt every
       later order. *)
    Fun.protect ~finally:(fun () -> Array.fill buckets 0 (Array.length buckets) 0) @@ fun () ->
    (* [buckets.(r + 1)] counts rank [r]; the prefix sum turns [buckets.(r)]
       into the first position of rank [r]. *)
    Array.iter
      (fun f ->
        let r = rank.(f.Fault.stem) + 1 in
        buckets.(r) <- buckets.(r) + 1)
      faults;
    for r = 1 to Array.length buckets - 1 do
      buckets.(r) <- buckets.(r) + buckets.(r - 1)
    done;
    let order = Array.make n 0 in
    Array.iteri
      (fun i f ->
        let r = rank.(f.Fault.stem) in
        order.(buckets.(r)) <- i;
        buckets.(r) <- buckets.(r) + 1)
      faults;
    order
  end

(* The chunk order of [faults] and, per chunk, its injections (lane [i + 1]
   for the chunk's [i]-th fault) compiled into an {!Tvs_sim.Inject.plan}.
   Replaying a plan costs a few dozen array writes where reinstalling the
   injections costs a validated walk per chunk per vector. A call pays
   O(n + nets) for the order and O(n) for the plans, so a fresh subset —
   [drop_detected]'s live faults, a stitching cycle's f_u, the
   candidate-scoring sample — costs about as much to prepare as one
   fault-free pass. Every call prepares its own array: no caller screens
   one array twice. Built on the submitter before any fan-out; pool workers
   only read it. *)
let prepare t (faults : Fault.t array) =
  let n = Array.length faults in
  let order = chunk_order t faults in
  let plans =
    Array.init (num_chunks n) (fun ci ->
        let pos = ci * chunk_size in
        let len = min chunk_size (n - pos) in
        Event.compile t.ev
          (Array.init len (fun i -> Fault.to_injection faults.(order.(pos + i)) ~lane:(i + 1))))
  in
  { order; plans }

(* --- pool fan-out ----------------------------------------------------- *)

let fanout_ctx t =
  match t.fanout with
  | Some fo -> fo
  | None ->
      let pool = Pool.shared ~jobs:t.jobs in
      let soa = Event.soa t.ev and c = circuit t in
      let slots =
        Array.init (Pool.jobs pool) (fun i ->
            if i = 0 then Lazy.from_val t.ev else lazy (Event.create ~soa c))
      in
      let fo = { pool; slots } in
      t.fanout <- Some fo;
      fo

(* Run [nchunks] independent chunks, across the pool when both the context
   and the workload are wide enough. [t.ev] must already hold the stimulus;
   worker slots inherit it by baseline adoption (O(nets) blits, no gate
   work) on their first chunk of each submission. Results are indexed by
   chunk, and each chunk records its own event/eval tallies into the
   executing domain's metric shards; per-chunk work is deterministic and
   shard merge is a plain sum, so output and totals are identical for every
   jobs value — including the inline jobs=1 path. *)
let run_chunks t ~nchunks f =
  let ev0 = t.ev in
  let out =
    if t.jobs = 1 || nchunks <= 1 then begin
      (* Accumulate the tallies locally and flush once: the registry merges
         shards by summation, so totals equal the per-chunk flushes of the
         fan-out path below for every jobs value. *)
      let events = ref 0 and evals = ref 0 in
      let out =
        Array.init nchunks (fun ci ->
            let r = f ev0 ci in
            events := !events + Event.last_events ev0;
            evals := !evals + Event.last_evals ev0;
            r)
      in
      Metrics.add m_events_fired !events;
      Metrics.add m_gate_evals !evals;
      Metrics.add m_gates_skipped ((nchunks * Event.full_evals ev0) - !evals);
      out
    end
    else begin
      let fo = fanout_ctx t in
      (* Fresh per submission: a slot's baseline is only valid for this
         stimulus. Each cell is touched by exactly one domain. *)
      let adopted = Array.make (Array.length fo.slots) false in
      adopted.(0) <- true;
      Pool.parallel_map_chunks fo.pool ~n:nchunks (fun ~slot ci ->
          let ev = Lazy.force fo.slots.(slot) in
          if not adopted.(slot) then begin
            Event.adopt_baseline ev ~from:ev0;
            adopted.(slot) <- true
          end;
          let r = f ev ci in
          Metrics.add m_events_fired (Event.last_events ev);
          Metrics.add m_gate_evals (Event.last_evals ev);
          Metrics.add m_gates_skipped (Event.full_evals ev - Event.last_evals ev);
          r)
    end
  in
  Metrics.add m_chunks nchunks;
  out

(* Map per-chunk outcomes back through the chunk order. *)
let scatter_outcomes p ~n chunk_out =
  let outcomes = Array.make n Same in
  Array.iteri
    (fun ci out ->
      let pos = ci * chunk_size in
      Array.iteri (fun i o -> outcomes.(p.order.(pos + i)) <- o) out)
    chunk_out;
  outcomes

(* The fault-free pass happens once in [set_stimulus]; each chunk then only
   re-evaluates the gates its fault cones disturb. *)
let run_batch t ~pi ~state ~faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.run_batch"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  Event.set_stimulus t.ev ~pi ~state;
  let good = { po = Event.good_po t.ev; capture = Event.good_capture t.ev } in
  let n = Array.length faults in
  let p = prepare t faults in
  let chunk_out =
    run_chunks t ~nchunks:(num_chunks n) (fun ev ci ->
        let len = min chunk_size (n - (ci * chunk_size)) in
        outcomes_of_run (Event.run ev ~plan:p.plans.(ci) ()) ~nfaults:len)
  in
  { good; outcomes = scatter_outcomes p ~n chunk_out }

let run_per_state t ~pi ~good_state ~faults ~states =
  if Array.length states <> Array.length faults then
    invalid_arg "Fault_sim.run_per_state: states length mismatch";
  let nflops = Circuit.num_flops (circuit t) in
  Array.iteri
    (fun i st ->
      if Array.length st <> nflops then
        invalid_arg
          (Printf.sprintf "Fault_sim.run_per_state: states.(%d) has %d bits, the circuit %d flops" i
             (Array.length st) nflops))
    states;
  Metrics.incr m_batches;
  Trace.with_span "faultsim.run_per_state"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  Event.set_stimulus t.ev ~pi ~state:good_state;
  let good = { po = Event.good_po t.ev; capture = Event.good_capture t.ev } in
  let n = Array.length faults in
  let nflops = Array.length good_state in
  let p = prepare t faults in
  let chunk_out =
    run_chunks t ~nchunks:(num_chunks n) (fun ev ci ->
        let pos = ci * chunk_size in
        let len = min chunk_size (n - pos) in
        (* Pack lane 0 from the fault-free state and lanes 1..len from each
           fault's private state. *)
        let state_words =
          Array.init nflops (fun j ->
              let w = ref (if good_state.(j) then 1 else 0) in
              for i = 0 to len - 1 do
                if states.(p.order.(pos + i)).(j) then w := !w lor (1 lsl (i + 1))
              done;
              !w)
        in
        outcomes_of_run (Event.run ev ~states:state_words ~plan:p.plans.(ci) ()) ~nfaults:len)
  in
  { good; outcomes = scatter_outcomes p ~n chunk_out }

let detects t ~pi ~state fault =
  let r = run_batch t ~pi ~state ~faults:[| fault |] in
  match r.outcomes.(0) with Same -> false | Po_detected | Capture_differs _ -> true

(* Set [flags] for the lanes of chunk [ci] that [diff] marks as detected. *)
let scatter_diff p ~n flags ci diff =
  let pos = ci * chunk_size in
  let len = min chunk_size (n - pos) in
  for i = 0 to len - 1 do
    if Lanes.get diff (i + 1) then flags.(p.order.(pos + i)) <- true
  done

(* Detection flags don't need the per-fault faulty-capture payloads that
   [outcomes_of_run] materializes, so the screening entry points read the
   lane difference masks directly. *)
let detect t ~pi ~state faults =
  let n = Array.length faults in
  let flags = Array.make n false in
  let p = prepare t faults in
  Event.set_stimulus t.ev ~pi ~state;
  Array.iteri (scatter_diff p ~n flags)
    (run_chunks t ~nchunks:(num_chunks n) (fun ev ci ->
         let len = min chunk_size (n - (ci * chunk_size)) in
         Event.run_diff ev ~plan:p.plans.(ci) ~used:(Lanes.mask (len + 1))));
  flags

let detected_faults t ~pi ~state faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_faults"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () -> detect t ~pi ~state faults

(* --- multi-vector screening -------------------------------------------- *)

(* Where each fault of a call meets the fanout-free-region table of
   {!Tvs_sim.Soa}: the net whose fault-free value it overrides ([src]), its
   stuck value as a word, and the root its effect leaves through. A stem
   fault follows [src]'s own path to the root; a branch into a gate
   ([gate] >= 0) enters that gate at [pin] and then follows the gate's
   path; a branch into a flop is captured as it is and has no root
   ([root] = -1). *)
type sites = {
  src : int array;
  stuck : int array;
  gate : int array;
  pin : int array;
  root : int array;
}

let sites soa (faults : Fault.t array) =
  let c = Soa.circuit soa in
  let nets = Circuit.num_nets c in
  let n = Array.length faults in
  let src = Array.make n 0 and stuck = Array.make n 0 and gate = Array.make n (-1) in
  let pin = Array.make n 0 and root = Array.make n (-1) in
  let bad what = invalid_arg ("Fault_sim.detected_matrix: " ^ what) in
  Array.iteri
    (fun i (f : Fault.t) ->
      if f.stem < 0 || f.stem >= nets then bad "fault stem is not a net of the circuit";
      stuck.(i) <- Lanes.broadcast f.stuck;
      match f.branch with
      | None ->
          src.(i) <- f.stem;
          root.(i) <- soa.Soa.ffr_root.(f.stem)
      | Some (sink, p) -> (
          if sink < 0 || sink >= nets then bad "branch sink is not a net of the circuit";
          match Circuit.driver c sink with
          | Circuit.Gate_node (_, ins) when p >= 0 && p < Array.length ins ->
              src.(i) <- ins.(p);
              gate.(i) <- sink;
              pin.(i) <- p;
              root.(i) <- soa.Soa.ffr_root.(sink)
          | Circuit.Flip_flop d when p = 0 -> src.(i) <- d
          | Circuit.Gate_node _ | Circuit.Flip_flop _ | Circuit.Primary_input | Circuit.Const _ ->
              bad "branch pin out of range"))
    faults;
  { src; stuck; gate; pin; root }

(* One pool slot's scratch for a matrix call: each net's traced
   observability, each root's flip mask (then its observed mask), the roots
   of the current pack, and each fault's mask. [flip] is all zero between
   packs. *)
type scratch = { obs : int array; flip : int array; roots : int array; fmask : int array }

let scratch ~nets ~faults =
  {
    obs = Array.make nets 0;
    flip = Array.make nets 0;
    roots = Array.make nets 0;
    fmask = Array.make faults 0;
  }

(* Screen one pack of up to [Lanes.width] vectors, lane [k] holding vector
   [pos + k], against every fault of [s]:
   1. one packed fault-free sweep;
   2. critical-path tracing on its words, which gives each fault the lanes
      where it is activated and reaches its region's root;
   3. one root-flip run per root some fault reaches, in exactly those
      lanes.
   A fault inside a region changes nothing outside it but its root, so its
   faulty machine in such a lane is the root-flipped one, and it is
   detected where its own mask meets its root's observed mask: [found i m]
   gets the nonzero mask [m] of fault [i]'s detecting lanes. *)
let screen_pack ev sc s ~vectors ~pos ~len found =
  let soa = Event.soa ev in
  let pack field width =
    Array.init width (fun j ->
        let w = ref 0 in
        for k = 0 to len - 1 do
          if (field vectors.(pos + k)).(j) then w := !w lor (1 lsl k)
        done;
        !w)
  in
  let c = Event.circuit ev in
  Event.set_packed_stimulus ev ~pi:(pack fst (Circuit.num_inputs c))
    ~state:(pack snd (Circuit.num_flops c));
  let good = Event.good ev in
  let used = Lanes.mask len in
  Soa.trace_ffr soa ~good ~obs:sc.obs;
  let n = Array.length s.src in
  let nroots = ref 0 in
  for i = 0 to n - 1 do
    let act = (good.(s.src.(i)) lxor s.stuck.(i)) land used in
    let r = s.root.(i) in
    let m =
      if act = 0 || r < 0 then act
      else
        let g = s.gate.(i) in
        if g < 0 then act land sc.obs.(s.src.(i))
        else act land sc.obs.(g) land Soa.pin_sens soa good g s.pin.(i)
    in
    sc.fmask.(i) <- m;
    if m <> 0 && r >= 0 then begin
      if sc.flip.(r) = 0 then begin
        sc.roots.(!nroots) <- r;
        incr nroots
      end;
      sc.flip.(r) <- sc.flip.(r) lor m
    end
  done;
  let events = ref 0 and evals = ref 0 in
  for k = 0 to !nroots - 1 do
    let r = sc.roots.(k) in
    sc.flip.(r) <- Event.run_flip ev ~net:r ~lanes:sc.flip.(r) ~used;
    events := !events + Event.last_events ev;
    evals := !evals + Event.last_evals ev
  done;
  for i = 0 to n - 1 do
    let m = sc.fmask.(i) and r = s.root.(i) in
    let hit = if r < 0 then m else m land sc.flip.(r) in
    if hit <> 0 then found i hit
  done;
  for k = 0 to !nroots - 1 do
    sc.flip.(sc.roots.(k)) <- 0
  done;
  Metrics.add m_events_fired !events;
  Metrics.add m_gate_evals !evals;
  Metrics.add m_gates_skipped ((!nroots * Event.full_evals ev) - !evals);
  Metrics.add m_chunks !nroots

(* A multi-vector screen: one batch and span, vectors checked first. *)
let matrix_call t ~vectors ~nfaults f =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_matrix"
    ~args:
      [
        ("vectors", string_of_int (Array.length vectors));
        ("faults", string_of_int nfaults);
      ]
  @@ fun () ->
  let c = circuit t in
  Array.iter
    (fun (pi, state) ->
      if Array.length pi <> Circuit.num_inputs c || Array.length state <> Circuit.num_flops c then
        invalid_arg "Fault_sim.detected_matrix: vector length mismatch")
    vectors;
  f ()

(* Multi-vector screening. A lone vector goes through [detect], without a
   span or batch of its own: one live lane gains nothing from root flips.
   Otherwise the pool axis is packs of [Lanes.width] vectors: the fault
   sites are mapped once on the submitter and shared read-only, and each
   pack's sweep, trace and root flips are private to the slot that screens
   it. Every pack's work is the same on any slot, so the matrix and the
   merged counters are byte-identical for every [jobs] setting. *)
let detected_matrix t ~vectors faults =
  let nvec = Array.length vectors and n = Array.length faults in
  matrix_call t ~vectors ~nfaults:n @@ fun () ->
  if nvec < 2 then Array.map (fun (pi, state) -> detect t ~pi ~state faults) vectors
  else begin
    let s = sites (Event.soa t.ev) faults in
    let npacks = (nvec + Lanes.width - 1) / Lanes.width in
    let screen ev sc pk =
      let pos = pk * Lanes.width in
      let len = min Lanes.width (nvec - pos) in
      let rows = Array.init len (fun _ -> Array.make n false) in
      screen_pack ev (Lazy.force sc) s ~vectors ~pos ~len (fun i m ->
          let hit = ref m and k = ref 0 in
          while !hit <> 0 do
            if !hit land 1 = 1 then rows.(!k).(i) <- true;
            hit := !hit lsr 1;
            incr k
          done);
      rows
    in
    let scratch () = lazy (scratch ~nets:(Circuit.num_nets (circuit t)) ~faults:n) in
    let out =
      if t.jobs = 1 || npacks <= 1 then Array.init npacks (screen t.ev (scratch ()))
      else begin
        let fo = fanout_ctx t in
        (* One scratch per slot, each forced by the one domain that owns
           the slot. *)
        let scr = Array.init (Array.length fo.slots) (fun _ -> scratch ()) in
        Pool.parallel_map_chunks fo.pool ~n:npacks (fun ~slot pk ->
            screen (Lazy.force fo.slots.(slot)) scr.(slot) pk)
      end
    in
    Array.concat (Array.to_list out)
  end

(* Fault dropping. A screen credits each live fault it detects to the
   vector of its lowest detecting lane, the first in order, and sets its
   flag, so no later pack screens it. Packs run in order on the submitter. *)
let drop_detected t ~vectors faults detected =
  if Array.length detected <> Array.length faults then
    invalid_arg "Fault_sim.drop_detected: detected length mismatch";
  let nvec = Array.length vectors in
  let news = Array.make nvec 0 in
  (* [live.(0 .. !n - 1)]: the faults whose flag is clear. *)
  let live = Array.make (Array.length faults) 0 and n = ref 0 in
  let refresh () =
    n := 0;
    Array.iteri (fun i d -> if not d then begin live.(!n) <- i; incr n end) detected
  in
  refresh ();
  let live_faults () = Array.init !n (fun k -> faults.(live.(k))) in
  let credit v k =
    news.(v) <- news.(v) + 1;
    detected.(live.(k)) <- true
  in
  if !n > 0 && nvec = 1 then begin
    let pi, state = vectors.(0) in
    let flags = detected_faults t ~pi ~state (live_faults ()) in
    Array.iteri (fun k hit -> if hit then credit 0 k) flags
  end
  else if !n > 0 && nvec > 1 then begin
    matrix_call t ~vectors ~nfaults:!n @@ fun () ->
    let sc = scratch ~nets:(Circuit.num_nets (circuit t)) ~faults:!n in
    let rec lowest m k = if m land (1 lsl k) <> 0 then k else lowest m (k + 1) in
    let pos = ref 0 in
    while !n > 0 && !pos < nvec do
      let len = min Lanes.width (nvec - !pos) in
      screen_pack t.ev sc (sites (Event.soa t.ev) (live_faults ())) ~vectors ~pos:!pos ~len
        (fun k m -> credit (!pos + lowest m 0) k);
      refresh ();
      pos := !pos + len
    done
  end;
  news
