(** Single stuck-at faults.

    A fault lives either on a {e stem} (the net itself, affecting every
    consumer and any primary-output observation of that net) or on a fanout
    {e branch} (visible only to one consumer pin). The paper's example fault
    list ("B-D/1", "E-b/0", ...) uses exactly this model. *)

type t = {
  stem : Tvs_netlist.Circuit.net;
  branch : (Tvs_netlist.Circuit.net * int) option;
      (** [Some (sink, pin)]: fault on the branch feeding [pin] of [sink]. *)
  stuck : bool;
}

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by {!equal}: membership in O(1) where a [List.exists] scan
    would cost a pass over the list. *)

val stem_fault : Tvs_netlist.Circuit.net -> bool -> t
val branch_fault : Tvs_netlist.Circuit.net -> sink:Tvs_netlist.Circuit.net -> pin:int -> bool -> t

val to_injection : t -> lane:int -> Tvs_sim.Parallel.injection

val name : Tvs_netlist.Circuit.t -> t -> string
(** Human-readable name in the paper's style: ["F/0"] for a stem fault,
    ["B-D/1"] for the branch of net B feeding gate D. *)

val pp : Tvs_netlist.Circuit.t -> Format.formatter -> t -> unit
