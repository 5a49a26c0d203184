(** Test cubes and fully specified test vectors.

    A cube assigns ternary values to the primary inputs and the scan cells;
    [X] bits are don't-cares left for later exploitation — random fill in a
    traditional flow, response reuse in the stitched flow. *)

type t = { pi : Tvs_logic.Ternary.t array; scan : Tvs_logic.Ternary.t array }

type vector = { pi : bool array; scan : bool array }
(** A fully specified stimulus. *)

val fully_x : Tvs_netlist.Circuit.t -> t

val copy : t -> t

val equal : t -> t -> bool

val specified_bits : t -> int
(** Number of non-[X] positions. *)

val total_bits : t -> int

val compatible : t -> t -> bool
(** No position constrained to conflicting binary values. *)

val merge : t -> t -> t option
(** Intersection when [compatible]; used by static compaction. *)

val fill_random : Tvs_util.Rng.t -> t -> vector
(** Replace every [X] with a random bit. *)

val fill_const : bool -> t -> vector

val of_vector : vector -> t

val to_string : t -> string
(** "pi|scan" with one character per bit, e.g. "1X0|01X". *)

val pp : Format.formatter -> t -> unit
