(** Batch fault simulation on top of the event-driven engine.

    One engine run simulates the fault-free machine in lane 0 and up to 62
    faulty machines in the remaining lanes; arbitrary fault batches are
    chunked internally. Two entry points cover the stitching engine's needs:

    - {!run_batch}: all machines receive the same stimulus (screening the
      uncaught set against a candidate vector);
    - {!run_per_state}: each faulty machine applies its own scan state (the
      hidden-fault case, where a fault's retained response bits mutate the
      vector it actually receives).

    The fault-free machine is evaluated once per stimulus; each chunk then
    propagates only lane events inside its fault cones
    ({!Tvs_sim.Event}), and chunks are grouped so faults with overlapping
    cones share lanes. Work done and skipped is tallied in {!counters}.
    Property tests check every entry point against a naive bool-level
    single-fault simulator.

    Chunks are independent, so they fan out across a {!Tvs_util.Pool}
    domain pool when [jobs > 1]: each pool slot owns a private engine
    context (the engine is not thread-safe), and results and counter
    tallies are merged in chunk order, making outcomes and counters
    bit-identical for every [jobs] value — including [jobs = 1], which never
    touches the pool. Entry points must be called from one domain at a time
    (the submitter). *)

type outcome =
  | Same  (** response identical to the fault-free machine *)
  | Po_detected  (** differs at a primary output: immediately observed *)
  | Capture_differs of bool array
      (** primary outputs identical; faulty captured scan state attached
          (length = number of flip-flops) *)

type frame = { po : bool array; capture : bool array }

type batch_result = { good : frame; outcomes : outcome array }

type t
(** Reusable fault-simulation context for one circuit: a {!Tvs_sim.Event}
    engine (and, when [jobs > 1], per-domain copies of it). Not
    thread-safe. *)

val create : ?jobs:int -> Tvs_netlist.Circuit.t -> t
(** [jobs] is the fan-out width (clamped to at least 1); defaults to
    {!Tvs_util.Pool.default_jobs}. Batches too small to chunk always run
    inline on the caller's domain. *)

val circuit : t -> Tvs_netlist.Circuit.t

(** Cumulative work counters across all contexts. The numbers live in the
    [faultsim.*] counters of the {!Tvs_obs.Metrics} registry (per-domain
    shards, merged by summation); this record is a point-in-time snapshot
    for callers that sample deltas (the engine per cycle, the bench
    harness). *)
type counters = {
  event_runs : int;  (** chunk runs of up to 62 faults ([faultsim.chunks]) *)
  events_fired : int;  (** net-value changes propagated *)
  gate_evals : int;  (** gates evaluated *)
  gates_skipped : int;  (** gate evaluations avoided vs. full passes *)
  faults_dropped : int;  (** faults permanently dropped once caught *)
}

val counters : unit -> counters
(** Snapshot the cumulative totals. Taken between batches (the entry points
    are submitter-side), the pool's completion barrier guarantees every
    worker contribution is visible. *)

val note_dropped : int -> unit
(** Record that [n] caught faults were dropped from further simulation. *)

val run_batch : t -> pi:bool array -> state:bool array -> faults:Fault.t array -> batch_result

val run_per_state :
  t ->
  pi:bool array ->
  good_state:bool array ->
  faults:Fault.t array ->
  states:bool array array ->
  batch_result
(** [states.(i)] is the scan state fault [i]'s machine applies;
    [Array.length states] must equal [Array.length faults]. *)

val detects : t -> pi:bool array -> state:bool array -> Fault.t -> bool
(** Full-observability detection (all POs and the whole captured state), the
    criterion of a traditional full-shift scan test. *)

val detected_faults : t -> pi:bool array -> state:bool array -> Fault.t array -> bool array
(** Full-observability detection flags for a whole fault list. *)

val detected_matrix :
  t -> vectors:(bool array * bool array) array -> Fault.t array -> bool array array
(** [detected_matrix t ~vectors faults] screens every [(pi, state)] vector
    against the whole fault list: row [v] equals
    [detected_faults t ~pi ~state faults] for vector [v].

    This is the batched form of per-vector screening: the cone order and
    per-chunk injection plans are built once for the entire call, and the
    domain-pool axis is batches of 16 vectors rather than 62-fault chunks —
    so one pool submission amortizes fan-out overhead across the whole
    vector set. Rows are merged by batch index and each vector's work is
    slot-independent, making the matrix byte-identical for every [jobs]
    value. *)
