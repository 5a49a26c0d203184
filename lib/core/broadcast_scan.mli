(** Parallel/Serial Full Scan — the paper's prior art [3] (Hamzaoglu &
    Patel, FTCS 1999), as a measurable baseline.

    The chain is split into [partitions] equal segments. In {e parallel}
    mode one short load broadcasts the same data to every segment (cost:
    one segment length per vector on both time and stimulus volume, with a
    MISR draining the per-segment responses — hardware the stitched flow
    does not need). Faults the broadcast patterns cannot reach fall back to
    {e serial} mode: ordinary full-shift vectors taken greedily from a
    known-good test set, preserving full achievable coverage as in the
    original scheme.

    The comparison study runs this next to {!Static_stitch} and the
    stitched engine: broadcast helps exactly as far as random replicated
    patterns reach, while stitching manufactures its overlap per fault. *)

type result = {
  partitions : int;
  parallel_vectors : int;  (** applied in broadcast mode *)
  serial_vectors : int;  (** full-shift fallbacks *)
  time : int;  (** shift cycles under the two-mode schedule *)
  memory : int;  (** stored bits *)
  time_ratio : float;  (** against the all-serial baseline for the same vector count *)
  memory_ratio : float;
  coverage : float;  (** detected fraction of the fault list *)
}

val run :
  Tvs_netlist.Circuit.t ->
  rng:Tvs_util.Rng.t ->
  partitions:int ->
  faults:Tvs_fault.Fault.t array ->
  fallback:Tvs_atpg.Cube.vector array ->
  result
(** [fallback] is a test set known to cover the faults (typically the
    baseline's). The broadcast phase applies at most 512 random patterns and
    stops after 10 consecutive useless ones. *)
