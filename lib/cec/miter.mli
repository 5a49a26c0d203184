(** Cone-local miter CNF over two circuits.

    A miter instance lazily Tseitin-encodes, into one
    {!Tvs_netlist.Tseitin} store, the fanin cones of whatever nets a
    {!check_pair} call touches — nothing outside the cones ever reaches the
    solver. One cone walker serves both sides: left nets resolve through
    their canonical representative; on the right, matched sources (primary
    inputs and flip-flop Q nets under the full-scan abstraction) share the
    left variable and nets with a proven substitution borrow the left
    literal instead of encoding their own cone. Tied sources carry unit
    clauses.

    Instances are one-shot: build, run one {!check_pair}, read values. The
    sweep in {!Cec} builds a fresh instance per proof attempt, which keeps
    every CNF minimal and every call independent (hence safe to fan out
    across pool slots). *)

type t

val create :
  left:Tvs_netlist.Circuit.t ->
  right:Tvs_netlist.Circuit.t ->
  canon:(Tvs_netlist.Circuit.net * bool) array ->
  source_map:int array ->
  subst:(Tvs_netlist.Circuit.net * bool) option array ->
  tie_left:(Tvs_netlist.Circuit.net * bool) list ->
  tie_right:(Tvs_netlist.Circuit.net * bool) list ->
  unit ->
  t
(** [canon] maps every left net to its signed structural representative
    [(rep, negated)] (identity where the net is its own representative —
    see [Cec.left_canon]); only representatives are Tseitin-encoded, so
    structurally equivalent left nets share one CNF variable. [source_map]
    maps every matched right-side source net to its left counterpart ([-1]
    elsewhere; unmatched right sources become free variables). [subst] maps
    right nets to proven left equivalences [(l, negated)] — consulted
    before encoding a right cone. Ties pin source nets to constants via
    unit clauses (applied lazily, only if the source enters a cone). The
    arrays are borrowed read-only, so one substitution table can back many
    concurrent instances. *)

type verdict =
  | Proven  (** UNSAT: the two nets agree everywhere (under the ties) *)
  | Refuted of bool array  (** SAT model, index = CNF variable *)
  | Undecided  (** decision budget exhausted *)

val check_pair :
  t ->
  budget:int ->
  left:Tvs_netlist.Circuit.net ->
  right:Tvs_netlist.Circuit.net ->
  phase:bool ->
  verdict * Tvs_util.Sat.stats
(** Decide [left = right] ([phase = false]) or [left = not right]
    ([phase = true]) for all assignments of the shared/free sources that
    satisfy the ties. Encodes both cones, asserts the XOR difference and
    decides every variable in reverse allocation order: the difference
    variable and the gates next to the miter first, the cone sources last.
    Call at most once per instance. *)

val left_value : t -> bool array -> Tvs_netlist.Circuit.net -> bool
(** Value of a left net under a {!Refuted} model: its CNF variable if the
    net entered the encoding, its tie value if tied, [false] otherwise
    (outside every cone — the verdict does not depend on it). *)

val right_value : t -> bool array -> Tvs_netlist.Circuit.net -> bool
(** Same for a right net; matched sources delegate to the left value. *)
