(** Per-circuit preparation shared by every experiment: synthesis (or the
    embedded netlist), fault-list construction and collapsing, PODEM context,
    and the traditional-flow baseline. One bounded memo, keyed by circuit
    digest, lets the tables, the stitched runs and the serve daemon reuse one
    another's work within a process. *)

type t = {
  circuit : Tvs_netlist.Circuit.t;
  all_faults : Tvs_fault.Fault.t array;  (** uncollapsed, for ablation *)
  faults : Tvs_fault.Fault.t array;  (** collapsed list fed to the flows *)
  ctx : Tvs_atpg.Podem.ctx;
  baseline : Tvs_core.Baseline.t;
  testable : Tvs_fault.Fault.t array;  (** faults the stitched flow must cover *)
}

val of_circuit : Tvs_netlist.Circuit.t -> t
(** Uncached preparation of an arbitrary circuit. *)

val capacity : int
(** How many preparations {!memo} holds (64); the insertion past it empties
    the table first. *)

val memo : ?digest:Tvs_store.Digest.t -> Tvs_netlist.Circuit.t -> t
(** The process's one preparation memo: {!of_circuit} once per circuit,
    keyed by its {!Tvs_store.Digest.circuit} ([digest], when the caller has
    computed it already). The digest covers the circuit's name, which seeds
    the baseline, so digest-equal circuits prepare identically.

    Not thread-safe. The serve daemon calls it from its scheduler thread
    only, and work fanned out over the domain pool (the candidate
    evaluations of [Tvs_tpi]) uses the uncached {!of_circuit}. *)

val get : ?scale:float -> string -> t
(** {!memo} of a profile benchmark by name ("s444", ...); [scale] shrinks
    the profile first (see {!Tvs_circuits.Profiles.scale}). The baseline
    RNG stream is derived from the (scaled) circuit name. *)

val engine_seed : t -> string -> Tvs_util.Rng.t
(** Fresh deterministic stream for an experiment label on this circuit. *)
