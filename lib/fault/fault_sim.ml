module Event = Tvs_sim.Event
module Lanes = Tvs_sim.Lanes
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
type prepared = { faults : Fault.t array; order : int array; plans : Tvs_sim.Inject.plan array }

(* Counting-sort tables for [chunk_order]: every net's position in
   [(Circuit.cone_rep net, net)] order, and a zeroed scratch of one bucket
   per net. *)
type ranks = { rank : int array; buckets : int array }

type t = {
  ev : Event.t;
  jobs : int;
  mutable fanout : fanout option;
  mutable memo : prepared option;  (* the last fault array screened *)
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
  {
    ev = Event.create circuit;
    jobs;
    fanout = None;
    memo = None;
    ranks = lazy (cone_ranks circuit);
  }

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
   [Generator.drop_detected]'s live faults, a stitching cycle's f_u, the
   candidate-scoring sample — costs about as much to prepare as one
   fault-free pass. The last array's preparation is kept by physical
   identity for callers that screen one array against many vectors one
   call at a time ([Broadcast_scan.run], the random-pattern study, the
   bench micros). Built on the submitter before any fan-out; pool workers
   only read it. *)
let prepare t (faults : Fault.t array) =
  match t.memo with
  | Some p when p.faults == faults -> p
  | Some _ | None ->
      let n = Array.length faults in
      let order = chunk_order t faults in
      let plans =
        Array.init (num_chunks n) (fun ci ->
            let pos = ci * chunk_size in
            let len = min chunk_size (n - pos) in
            Event.compile t.ev
              (Array.init len (fun i -> Fault.to_injection faults.(order.(pos + i)) ~lane:(i + 1))))
      in
      let p = { faults; order; plans } in
      t.memo <- Some p;
      p

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
let detected_faults t ~pi ~state faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_faults"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
  @@ fun () ->
  let n = Array.length faults in
  let flags = Array.make n false in
  let p = prepare t faults in
  Event.set_stimulus t.ev ~pi ~state;
  Array.iteri (scatter_diff p ~n flags)
    (run_chunks t ~nchunks:(num_chunks n) (fun ev ci ->
         let len = min chunk_size (n - (ci * chunk_size)) in
         Event.run_diff ev ~plan:p.plans.(ci) ~used:(Lanes.mask (len + 1)) ()));
  flags

(* Vectors per pool chunk in multi-vector screening. Sizes 1, 4 and 16
   measured within noise of each other, so the size is fixed. *)
let vector_batch = 16

(* Multi-vector screening. The pool axis here is *vector batches* of
   [vector_batch] vectors, not 62-fault chunks: one pool submission covers
   the whole vector set, the cone order and injection plans are built once
   and shared read-only, and each vector's full stimulus pass is private to
   the slot that screens it (no baseline adoption traffic). Results are
   keyed by batch index and every vector's work is identical no matter
   which slot runs it, so the matrix — and the merged stable counters — are
   byte-identical for every [jobs] setting. *)
let detected_matrix t ~vectors faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_matrix"
    ~args:
      [
        ("vectors", string_of_int (Array.length vectors));
        ("faults", string_of_int (Array.length faults));
      ]
  @@ fun () ->
  let nvec = Array.length vectors in
  let n = Array.length faults in
  if nvec = 0 then [||]
  else begin
    let nchunks = num_chunks n in
    let p = prepare t faults in
    let screen ev (pi, state) =
      Event.set_stimulus ev ~pi ~state;
      let flags = Array.make n false in
      let events = ref 0 and evals = ref 0 in
      for ci = 0 to nchunks - 1 do
        let len = min chunk_size (n - (ci * chunk_size)) in
        let diff = Event.run_diff ev ~plan:p.plans.(ci) ~used:(Lanes.mask (len + 1)) () in
        events := !events + Event.last_events ev;
        evals := !evals + Event.last_evals ev;
        scatter_diff p ~n flags ci diff
      done;
      (* One flush per vector: shard merge is a sum, so totals match a
         per-chunk flush exactly, for every jobs value. *)
      Metrics.add m_events_fired !events;
      Metrics.add m_gate_evals !evals;
      Metrics.add m_gates_skipped ((nchunks * Event.full_evals ev) - !evals);
      Metrics.add m_chunks nchunks;
      flags
    in
    let nbatches = (nvec + vector_batch - 1) / vector_batch in
    let screen_batch ev bi =
      let pos = bi * vector_batch in
      let len = min vector_batch (nvec - pos) in
      Array.init len (fun k -> screen ev vectors.(pos + k))
    in
    let out =
      if t.jobs = 1 || nbatches <= 1 then Array.init nbatches (screen_batch t.ev)
      else begin
        let fo = fanout_ctx t in
        Pool.parallel_map_chunks fo.pool ~n:nbatches (fun ~slot bi ->
            screen_batch (Lazy.force fo.slots.(slot)) bi)
      end
    in
    let matrix = Array.make nvec [||] in
    Array.iteri
      (fun bi batch -> Array.iteri (fun k flags -> matrix.((bi * vector_batch) + k) <- flags) batch)
      out;
    matrix
  end
