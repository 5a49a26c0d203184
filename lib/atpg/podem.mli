(** PODEM test generation (Goel 1981) over the full-scan combinational core,
    with optional pre-constrained scan cells.

    The constraint mechanism is what the stitching flow relies on: the
    retained part of the previous response occupies scan cells whose values
    are fixed, and PODEM must find a detecting assignment of the {e free}
    positions only (primary inputs plus the freshly shifted-in cells).

    Detection criterion is full observability (any primary output or any
    captured scan cell); the stitched flow classifies partial-observation
    outcomes afterwards by fault simulation. *)

type result =
  | Detected of Cube.t
      (** Cube over (PI, scan); constrained bits are included as specified. *)
  | Untestable
      (** Search space exhausted: redundant when unconstrained, merely
          unproducible under the given constraints otherwise. *)
  | Aborted  (** Backtrack limit hit. *)

type config = {
  backtrack_limit : int;
  guided : bool;
      (** use SCOAP costs in the backtrace (the default); [false] picks the
          first unassigned input instead — the ablation baseline *)
}

val default_config : config
(** 100 backtracks, SCOAP-guided, in line with classic ATPG practice. *)

type ctx

val create : Tvs_netlist.Circuit.t -> ctx
(** Pre-computes SCOAP guidance and allocates simulation state reused across
    calls. *)

val circuit : ctx -> Tvs_netlist.Circuit.t
val scoap : ctx -> Scoap.t

val generate :
  ?config:config ->
  ?constraints:Tvs_logic.Ternary.t array ->
  ctx ->
  Tvs_fault.Fault.t ->
  result
(** [constraints] has one entry per scan cell ([X] = free); defaults to all
    free. Raises [Invalid_argument] on length mismatch. *)
