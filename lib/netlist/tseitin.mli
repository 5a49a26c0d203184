(** The CNF under construction, shared by SAT-based ATPG and the
    equivalence checker's miters: one clause store with its variable
    counter, and the Tseitin encoding of a gate into it.

    Literals are non-zero ints: [v] is variable [v], [-v] its negation.
    Variables are numbered from 1 in allocation order, and every encoding
    emits its clauses in a fixed order, so a CNF is deterministic given the
    order of the calls that build it. *)

type t

val create : ?nvars:int -> unit -> t
(** An empty store whose variables [1 .. nvars] (default none) are taken:
    the caller numbers them itself, and {!fresh} continues after them. *)

val nvars : t -> int
(** Variables allocated so far, the highest variable number. *)

val fresh : t -> int
(** A new variable. *)

val add : t -> int list -> unit
(** Add one clause (a disjunction of literals). *)

val gate : t -> out:int -> Gate.kind -> int list -> unit
(** [gate t ~out kind ins] constrains literal [out] to equal [kind]
    applied to the input literals [ins]. AND/OR families take one clause
    per input plus one wide clause (NAND/NOR negate [out]); an n-input
    XOR/XNOR chains n-1 two-input XORs through auxiliaries from {!fresh}.
    Raises [Invalid_argument] on an empty XOR or a NOT/BUF without exactly
    one input. *)

val xor2 : t -> int -> int -> int -> unit
(** [xor2 t out a b] constrains [out = a xor b] with four clauses. *)

val solve :
  ?decision_order:int list -> ?max_decisions:int -> t -> Tvs_util.Sat.result * Tvs_util.Sat.stats
(** {!Tvs_util.Sat.solve_stats} on the clauses added so far, over
    variables [1 .. nvars t]. The store stays usable. *)
