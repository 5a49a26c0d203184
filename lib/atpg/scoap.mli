(** SCOAP testability measures (Goldstein 1979).

    Combinational controllabilities CC0/CC1 (cost of setting a net to 0/1)
    and observability CO (cost of propagating a net's value to an observation
    point). Primary inputs and scan cells cost 1 to control; primary outputs
    and scan-capture points cost 0 to observe. Used for PODEM backtrace
    guidance and for the paper's "hardness to test" fault ordering. *)

type t

val compute : Tvs_netlist.Circuit.t -> t

val cc0 : t -> Tvs_netlist.Circuit.net -> int
val cc1 : t -> Tvs_netlist.Circuit.net -> int

val cc : t -> Tvs_netlist.Circuit.net -> bool -> int
(** [cc t net v] = cost of driving [net] to value [v]. *)

val co_stem : t -> Tvs_netlist.Circuit.net -> int
(** Stem observability: minimum over the net's branches and any direct
    primary-output observation. [max_int / 4] when unobservable. *)

val fault_hardness : t -> Tvs_fault.Fault.t -> int
(** Detection-cost estimate: controllability of the activation value at the
    site plus the site's observability. Higher = harder. The paper's
    "Hardness" vector-selection strategy orders faults by this measure. *)

val unreachable : int
(** The cost used for unobservable/uncontrollable sites. *)
