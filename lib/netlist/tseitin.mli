(** Tseitin CNF encoding of one gate, shared by SAT-based ATPG and the
    equivalence checker's miters.

    Literals are non-zero ints: [v] is variable [v], [-v] its negation.
    The caller owns variable allocation and the clause store and passes
    them in as [fresh] and [add]; clauses are emitted in a fixed order, so
    an encoding is deterministic given the caller's allocation. *)

val encode_gate :
  fresh:(unit -> int) -> add:(int list -> unit) -> out:int -> Gate.kind -> int list -> unit
(** [encode_gate ~fresh ~add ~out kind ins] constrains literal [out] to
    equal [kind] applied to the input literals [ins]. AND/OR families take
    one clause per input plus one wide clause (NAND/NOR negate [out]); an
    n-input XOR/XNOR chains n-1 two-input XORs through auxiliaries drawn
    from [fresh]. Raises [Invalid_argument] on an empty XOR or a NOT/BUF
    without exactly one input. *)

val encode_xor2 : add:(int list -> unit) -> int -> int -> int -> unit
(** [encode_xor2 ~add out a b] constrains [out = a xor b] with four
    clauses. *)
