(** Test-point candidates mined from the lint hidden-fault-risk table.

    The S004 risk table ({!Tvs_lint.Scan_lint.risk_table}) already names
    where the stitched flow loses faults: retained scan positions whose
    D-support contains {e exclusive} nets — nets no primary output and no
    emitted cell can observe. Every candidate targets one such net.
    Observation points make the net visible somewhere the shifted schedule
    emits (a new scan cell appended to the chain tail, or a direct primary
    output tap); control points (optional) make it easier to set from
    outside through a fresh control input. *)

type kind =
  | Observe_cell  (** new scan cell at the chain tail capturing the net *)
  | Observe_po  (** buffer tap of the net marked as a new primary output *)
  | Control_one  (** OR the net with a new control input (1 forces 1) *)
  | Control_zero  (** AND the net with the inverted control input (1 forces 0) *)

type t = {
  kind : kind;
  net : string;  (** target net, by name — stable across the transform *)
  score : int;  (** static rank: [3*hits + maxobs - dmem], clamped at 0 *)
  hits : int;  (** retained positions whose exclusive support holds the net *)
  dmem : int;  (** per-vector test-data bits the point adds *)
  dtime : int;  (** per-vector test-time cycles the point adds *)
}

val kind_name : kind -> string
(** ["obs-cell"], ["obs-po"], ["ctl-1"], ["ctl-0"] — the ASCII/JSON tag. *)

val kind_rank : kind -> int
(** Tie-break order: observation before control, cells before taps. *)

val same_target : t -> t -> bool
(** Equal [(kind, net)] — the identity the greedy loop deduplicates on. *)

val mine :
  ?shift:int ->
  ?po_taps:bool ->
  ?controls:bool ->
  ?limit:int ->
  Tvs_netlist.Circuit.t ->
  t list
(** Ranked candidate list for the risk table at [shift] (clamped to
    [1..L]; default {!Tvs_lint.Scan_lint.default_shift}). One candidate per
    enabled kind per exclusive net; [po_taps] and [controls] (both off by
    default) enable the tap and control kinds. Sorted by score descending,
    then {!kind_rank}, then net name — a pure function of the circuit and
    the flags. [limit] keeps the top entries. Empty when the circuit has no
    flip-flops or the risk table has no exclusive nets. *)
