(** Per-lane stuck-at override machinery shared by the packed simulators
    ({!Parallel}, full broadcast, and {!Event}, cone-restricted).

    An override set maps stem faults to per-net force-to-0/1 lane masks and
    fanout-branch faults to per-(sink, pin) masks. The structure is reusable:
    {!clear} undoes exactly what the previous {!install} touched, in time
    proportional to the injection count: every touched cell is recorded on
    an int stack sized by the circuit, so install and clear allocate
    nothing. *)

type injection = {
  lane : int;  (** lane carrying the faulty machine *)
  stuck : bool;  (** stuck-at value *)
  stem : Tvs_netlist.Circuit.net;  (** the faulted net *)
  branch : (Tvs_netlist.Circuit.net * int) option;
      (** [None] = stem fault; [Some (sink, pin)] = fanout-branch fault
          visible only to that consumer pin. *)
}

type t

val create : Tvs_netlist.Circuit.t -> t
(** All overrides initially empty. The circuit fixes the branch-slot layout
    (one slot per consumer pin). *)

val clear : t -> unit
val install : t -> injection list -> unit
(** Raises [Invalid_argument] on a lane outside [0, Lanes.width) or a branch
    pin outside the sink's fanin range; the tables are then left clear. *)

type plan = private {
  stems : Tvs_netlist.Circuit.net array;  (** unique stem-faulted nets *)
  stem_set_m : int array;  (** merged force-to-1 mask per entry of [stems] *)
  stem_clear_m : int array;  (** merged force-to-0 mask per entry of [stems] *)
  flag_sinks : Tvs_netlist.Circuit.net array;  (** unique branch-override sinks *)
  slots : int array;  (** unique overridden (sink, pin) slots *)
  slot_set_m : int array;
  slot_clear_m : int array;
  branch_stems : Tvs_netlist.Circuit.net array;  (** one row per branch injection *)
  branch_sinks : Tvs_netlist.Circuit.net array;
  branch_pins : int array;
}
(** A compiled injection array: the exact override-table writes an {!install}
    of the list would perform, deduplicated and with lane masks pre-merged.
    Compiling once and replaying with {!install_plan}/{!clear_plan} turns the
    per-run injection cost from a list walk with per-entry allocation and
    validation into a few dozen array writes — the difference dominates
    event-driven screening, where cone activity is small but every chunk of
    every vector reinstalls the same 62 overrides. Immutable after
    {!compile}; safe to share read-only across domains. *)

val compile : t -> injection array -> plan
(** Validates like {!install} (raising [Invalid_argument] on a bad lane or
    pin) and leaves [t]'s override tables unchanged, also when it raises.
    Installing the plan writes exactly what [install t (Array.to_list a)]
    would. *)

val install_plan : t -> plan -> unit
(** Requires [t] to hold no overrides (the state {!clear}/{!clear_plan}
    leave behind); callers must pair every [install_plan] with a
    {!clear_plan} of the same plan. *)

val clear_plan : t -> plan -> unit

val apply_stem : t -> Tvs_netlist.Circuit.net -> int -> int
(** Apply the net's stem force masks to a lane-packed value. *)

val sink_flagged : t -> Tvs_netlist.Circuit.net -> bool
(** Whether the sink has at least one branch override installed — the guard
    for taking the slower per-pin {!fetch} path when evaluating its gate. *)

val fetch : t -> values:int array -> sink:Tvs_netlist.Circuit.net -> pin:int -> Tvs_netlist.Circuit.net -> int
(** Value of a source net as seen by one consumer pin (branch overrides
    applied). *)
