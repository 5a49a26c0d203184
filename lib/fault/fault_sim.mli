(** Batch fault simulation on top of the event-driven engine.

    Two kernels share one {!Tvs_sim.Event} engine.

    {b Fault-parallel, one vector at a time.} One engine run simulates the
    fault-free machine in lane 0 and up to 62 faulty machines in the
    remaining lanes; arbitrary fault batches are chunked internally. The
    fault-free machine is evaluated once per stimulus; each chunk then
    propagates only lane events inside its fault cones, and chunks are
    grouped so faults with overlapping cones share lanes. The stitching
    engine's per-vector entry points all work this way:

    - {!run_batch}: all machines receive the same stimulus (screening the
      uncaught set against a candidate vector);
    - {!run_per_state}: each faulty machine applies its own scan state (the
      hidden-fault case, where a fault's retained response bits mutate the
      vector it actually receives);
    - {!detected_faults}: detection flags only;
    - {!drop_detected}: fault dropping — screen vectors in order, each
      against the faults not yet detected, and mark the ones it catches.

    {b Pattern-parallel, over fanout-free regions.} {!detected_matrix} packs
    up to {!Tvs_sim.Lanes.width} vectors into one word per net, lane [k]
    holding vector [k]. One packed fault-free sweep, critical-path tracing
    over the {!Tvs_sim.Soa} fanout-free-region table, and one root-flip run
    per region root that some fault reaches screen every fault against the
    whole pack. Calls with too few vectors use the first kernel instead.

    Work done and skipped is tallied in the [faultsim.*] counters of the
    {!Tvs_obs.Metrics} registry: [chunks] (engine runs: chunks of up to 62
    faults, and the root-flip runs of {!detected_matrix}), [events_fired],
    [gate_evals], [gates_skipped] (evaluations avoided against full passes)
    and [faults_dropped]. Property tests check every entry point against a
    naive bool-level single-fault simulator, and {!detected_matrix} against
    per-fault {!Tvs_sim.Parallel.run} as well.

    Chunks and packs are independent, so they fan out across a
    {!Tvs_util.Pool} domain pool when [jobs > 1]: each pool slot owns a
    private engine context (the engine is not thread-safe), and results and
    counter tallies are merged in chunk or pack order, making outcomes and
    counters bit-identical for every [jobs] value — including [jobs = 1],
    which never touches the pool. Entry points must be called from one
    domain at a time (the submitter). *)

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
    [Array.length states] must equal [Array.length faults], and every
    [states.(i)] must hold one bit per flip-flop. Raises
    [Invalid_argument] otherwise, before any simulation. *)

val detects : t -> pi:bool array -> state:bool array -> Fault.t -> bool
(** Full-observability detection (all POs and the whole captured state), the
    criterion of a traditional full-shift scan test. *)

val detected_faults : t -> pi:bool array -> state:bool array -> Fault.t array -> bool array
(** Full-observability detection flags for a whole fault list. *)

val drop_detected :
  t -> vectors:(bool array * bool array) array -> Fault.t array -> bool array -> int array
(** [drop_detected t ~vectors faults detected] screens the vectors in order
    against the faults whose [detected] flag is clear, sets the flags of
    those they detect and returns how many each vector detected first. One
    vector is screened as by {!detected_faults}, more in packs on the
    {!detected_matrix} kernel; no pack screens a fault an earlier one caught,
    and with every flag set nothing is screened. [faults_dropped] is left
    alone. Raises [Invalid_argument] unless [detected] has one flag per fault. *)

val detected_matrix :
  t -> vectors:(bool array * bool array) array -> Fault.t array -> bool array array
(** [detected_matrix t ~vectors faults] screens every [(pi, state)] vector
    against the whole fault list: row [v] equals
    [detected_faults t ~pi ~state faults] for vector [v].

    With at least two vectors the call is pattern-parallel: per pack of up
    to {!Tvs_sim.Lanes.width} vectors, one packed fault-free sweep, one
    critical-path trace of every fanout-free region, and one
    {!Tvs_sim.Event.run_flip} per region root that some fault reaches, in
    exactly the lanes where one does. A fault is detected in the lanes
    where it reaches its root and the flipped root is observed; a branch
    fault into a flop wherever it is activated. The pool's unit of work is a
    pack; each pack's work is private to the slot that runs it, so the
    matrix and the counters are byte-identical for every [jobs] value. A
    single vector is screened exactly as {!detected_faults} screens it.

    Raises [Invalid_argument] if a vector's lengths do not match the
    circuit, or if a fault names a net, sink or pin the circuit lacks. *)
