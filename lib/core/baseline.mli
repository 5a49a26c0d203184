(** The traditional full-shift flow the paper compares against: every vector
    is completely shifted through the chain, every response completely
    shifted out. Provides the [aTV] vector count and the cost denominators
    for the [m]/[t] ratios. *)

type t = {
  num_vectors : int;  (** aTV *)
  vectors : Tvs_atpg.Cube.vector array;
  cubes : Tvs_atpg.Cube.t array;  (** the unfilled cubes behind [vectors] *)
  redundant : Tvs_fault.Fault.t list;
  aborted : Tvs_fault.Fault.t list;
  coverage : float;
  time : int;  (** shift cycles *)
  memory : int;  (** stored stimulus + response bits *)
}

val run : rng:Tvs_util.Rng.t -> Tvs_atpg.Podem.ctx -> faults:Tvs_fault.Fault.t array -> t

val testable_faults : t -> Tvs_fault.Fault.t array -> Tvs_fault.Fault.t array
(** The fault list minus the redundant and aborted faults — the universe the
    stitched flow is asked to cover (the paper excludes the redundant
    E-F/1 the same way). *)
