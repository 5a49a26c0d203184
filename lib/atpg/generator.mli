(** Complete test-set generation for the traditional full-shift flow: the
    project's stand-in for ATALANTA. Produces the baseline vector count
    ([aTV] in the paper's tables) and the baseline cost denominators.

    Pipeline: optional random-pattern phase with fault dropping, then
    PODEM per remaining fault (dropping after every vector), then optional
    greedy static compaction of the cubes followed by a coverage-restoring
    top-up pass. *)

type t = {
  vectors : Cube.vector array;  (** final, fully specified test set *)
  cubes : Cube.t array;  (** the cubes the vectors were filled from *)
  detected : bool array;  (** per fault of the input list *)
  redundant : Tvs_fault.Fault.t list;  (** proven untestable *)
  aborted : Tvs_fault.Fault.t list;  (** backtrack limit hit *)
}

val coverage : t -> float
(** Detected fraction of the non-redundant faults. *)

val num_vectors : t -> int

type options = {
  podem : Podem.config;
  random_patterns : int;
      (** max vectors in the random phase, which also stops after 5
          consecutive useless patterns; 0 disables *)
  compaction : bool;
  fault_dropping : bool;
      (** simulate each new vector against the whole undetected set (the
          default); [false] credits only the targeted fault — the ablation
          baseline showing why dropping matters *)
}

val default_options : options

val generate :
  ?options:options -> rng:Tvs_util.Rng.t -> Podem.ctx -> Tvs_fault.Fault.t array -> t
(** Deterministic for a given [rng] state and fault order. *)
