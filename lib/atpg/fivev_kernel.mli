(** PODEM's five-valued implication kernel: int-coded {!Tvs_logic.Fivev}
    values evaluated over the shared {!Tvs_sim.Soa} gate tables.

    A net's value is one small int (the {!Tvs_logic.Fivev.t} constructor
    order, see {!code}), stored one byte per net in a [Bytes.t]. A gate is
    evaluated as a left-to-right fold of its fanin codes through a 25-entry
    table for its {!Tvs_sim.Soa} fold operator (AND, OR or XOR), followed by
    a 5-entry NOT table when the gate's inversion word is set; the copy
    operator (BUF, NOT) just reads its one fanin. Every table is generated
    at module initialisation from {!Tvs_logic.Fivev.f_and}, [f_or], [f_xor]
    and [f_not], so the kernel agrees with {!Tvs_netlist.Gate.eval_fivev}
    by construction (and exhaustively by test).

    The fold must go one input at a time: a two-plane (good, faulty)
    evaluation that normalises to [X] only at the end is {e not} equivalent,
    e.g. AND(AND(D, X), D') is [X] stepwise but [Zero] unnormalised. *)

val zero : int
val one : int
val d : int
val dbar : int
val x : int
(** The codes of [Zero], [One], [D], [Dbar] and [X]: 0 to 4. *)

val code : Tvs_logic.Fivev.t -> int
val of_code : int -> Tvs_logic.Fivev.t

val of_ternary : Tvs_logic.Ternary.t -> int
(** [Zero], [One] or [X]. *)

val to_ternary : int -> Tvs_logic.Ternary.t
(** The fault-free projection ({!Tvs_logic.Fivev.good}). *)

val site : bool -> int -> int
(** [site stuck v]: the value at a fault site stuck at [stuck], given the
    fault-free value [v] flowing there — the good machine keeps [v]'s good
    half, the faulty machine is forced. An unknown good value stays [x]. *)

val eval : Tvs_sim.Soa.t -> Bytes.t -> int -> int
(** [eval soa values net] evaluates gate or constant [net] from the codes
    of its fanins in [values]. Unchecked: [values] must hold a valid code
    for every net of [soa]'s circuit. *)

val eval_pin : Tvs_sim.Soa.t -> Bytes.t -> int -> pin:int -> int -> int
(** [eval_pin soa values net ~pin v] is {!eval} with fanin pin [pin] of
    [net] reading [v] instead of its net's value: the view of a gate that
    consumes a faulty fanout branch. *)
