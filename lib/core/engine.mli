(** The stitched test-generation engine: the algorithmic framework of the
    paper's Section 5 (Figure 2 flowchart) with the implementation options of
    Section 6.

    Each iteration chooses a shift size per the shift policy, derives the
    constraint cube from the retained fault-free response, asks PODEM for a
    vector catching a new [f_u] fault under that constraint, selects among
    candidates per the selection strategy, and advances the {!Cycle} machine.
    When no constrained vector can be produced, a variable policy widens the
    shift; once it is exhausted the leftover faults are handed to the
    traditional generator as full-shift "extra" vectors (the [ex] column of
    Table 2). *)

type config = {
  scheme : Tvs_scan.Xor_scheme.t;
  shift : Policy.shift_policy;
  selection : Policy.selection;
  podem : Tvs_atpg.Podem.config;
  max_cycles : int;  (** hard cap on stitched cycles *)
  preflight : bool;
      (** run the cheap lint gate ({!Tvs_lint.Lint.preflight}: structural +
          constant propagation, no SAT) before the first cycle and raise
          [Failure] on any error-severity finding. Off by default; has no
          effect on the results of a run that passes, so it is excluded from
          {!Tvs_store.Digest.config} and checkpoints stay compatible. *)
}

val default_config : chain_len:int -> config
(** Variable shift (paper's winner), most-faults selection over 5 candidates,
    no XOR hardware. *)

val stagnation_limit : int
(** Stitching stops after this many (25) consecutive cycles catching
    nothing. Newly hidden faults do not count: they can churn between hidden
    and uncaught without ever being observed. *)

val max_targets_per_cycle : int
(** PODEM attempts (25, four times that under a fixed shift) before a cycle
    is declared stuck. *)

type result = {
  schedule : Tvs_scan.Cost.schedule;
  stimuli : (bool array * bool array) list;
      (** the stitched test data, in order: (PI values, fresh scan bits) per
          cycle — everything an ATE needs besides the expected responses *)
  extra_stimuli : Tvs_atpg.Cube.vector list;
      (** the appended traditional vectors, in order *)
  stitched_vectors : int;  (** TV *)
  extra_vectors : int;  (** ex *)
  caught_stitched : int;
  caught_extra : int;
  total_faults : int;
  redundant : Tvs_fault.Fault.t list;  (** found untestable during the extra phase *)
  aborted : Tvs_fault.Fault.t list;
  peak_hidden : int;
}

val coverage : result -> float
(** Caught over non-redundant faults. *)

type snapshot = {
  machine : Cycle.persisted;
  shifts_rev : int list;  (** shift sizes so far, most recent first *)
  stimuli_rev : (bool array * bool array) list;
  peak_hidden : int;
  stagnant : int;
  current_s : int;  (** the shift size the next cycle will try *)
  rng_state : int64;
}
(** Everything the main loop mutates between stitched cycles. Together with
    the construction inputs (config, faults, fallback, PODEM context — all
    deterministically reproducible from a circuit spec) a snapshot continues
    an interrupted run bit-identically; see {!Tvs_store.Checkpoint} for the
    on-disk form. *)

val run :
  ?config:config ->
  ?fallback:Tvs_atpg.Cube.vector array ->
  ?resume:snapshot ->
  ?checkpoint:int * (snapshot -> unit) ->
  rng:Tvs_util.Rng.t ->
  Tvs_atpg.Podem.ctx ->
  faults:Tvs_fault.Fault.t array ->
  result
(** Deterministic given the rng state. The fault array should normally be the
    collapsed list; known-redundant faults may be pre-filtered for speed.

    [fallback] is a known-good full-shift test set (typically the baseline's):
    when the extra phase's own ATPG aborts on a leftover fault, detecting
    vectors are appended from it instead, so the stitched flow can never end
    below the baseline's coverage.

    [resume] restores a mid-flow snapshot before the first cycle: the run
    continues exactly where the snapshot was taken, and its result is
    byte-identical to the uninterrupted run's (the remaining inputs must be
    the ones the original run was created with — enforced by digest checks
    at the {!Tvs_store.Checkpoint} layer). [checkpoint] is [(every, save)]:
    [save] receives a fresh snapshot after every [every]-th stitched cycle.
    Raises [Failure] before the first cycle when a fixed shift lies outside
    1 to the scan chain length, and [Invalid_argument] when a resumed
    snapshot's shape does not match the circuit or fault list. *)
