(** SAT-sweeping combinational equivalence checker.

    The correctness gate for every netlist transformation in the repo: scan
    insertion, TPI instrumentation, the Verilog emit/parse round-trip and
    the cell library's mux2 decomposition. Both circuits are compared under
    the full-scan abstraction — flip-flop Q nets are pseudo primary inputs,
    D nets pseudo primary outputs — so one combinational check covers the
    sequential machine.

    The pipeline is classic SAT sweeping:

    + {b match} the interfaces by name (raising {!Mismatch} when a left
      input, output or flip-flop has no right counterpart; extra right-side
      pins are inclusion-checked — reported, tied by convention, or left as
      free variables, which is sound because the proof then holds for every
      value they take);
    + {b simulate} both circuits on the word-parallel SoA kernels under
      shared random stimulus to partition internal nets into candidate
      equivalence classes (signatures are canonicalized so complements
      share a class);
    + {b sweep}: prove candidate pairs with cone-local miters in topological
      order, substituting every proven equivalence into later cones; then
      prove each matched observation point with a full-budget miter.

    Per-point miters are independent and fan out across the domain pool;
    results merge in point order, so the verdict — including which
    counterexample is reported — is byte-identical at every [--jobs] width.
    Whole checks are memoized in the result cache under kind [{!cache_kind}].

    A reported counterexample is always replayed through both circuits'
    simulators first; an unconfirmed vector fails loudly instead of being
    reported. *)

exception Mismatch of string
(** The two circuits do not share a checkable interface (missing input,
    output or flip-flop; a tie naming no input). Distinct from
    [Inequivalent]: the question could not even be posed. *)

type tie = { name : string; value : bool }
(** Pin a named input (primary input or flip-flop Q) to a constant on
    whichever side it resolves. Transform gates are conditional
    equivalences: scan insertion preserves function only at [scan_en=0],
    TPI only at [tpi_ctl_*=0]. *)

type options = {
  vectors : int;  (** random-simulation rounds (each 63 lane-packed patterns) *)
  budget : int;  (** SAT decision budget per observation-point miter *)
  ties : tie list;
      (** besides these, the repo's own transform pins on unmatched right
          inputs, [scan_en] and [tpi_ctl_*], always tie to 0 *)
}

val default_options : options
(** 8 vectors, 200_000 decisions, no ties. *)

type point =
  | Po of string  (** primary output, by name *)
  | Capture of string  (** flip-flop D pseudo-output, by flop name *)

type counterexample = {
  point : point;  (** first differing observation point, in check order *)
  left_pi : bool array;  (** left primary inputs, circuit input order *)
  left_state : bool array;  (** left flip-flop Q values, scan order *)
  right_pi : bool array;
  right_state : bool array;
  left_value : bool;
  right_value : bool;
}

type verdict =
  | Equivalent  (** every observation point proven equal *)
  | Inequivalent of counterexample  (** simulation-confirmed difference *)
  | Unknown of point list  (** budget exhausted on the listed points *)

type result = {
  left : string;
  right : string;
  verdict : verdict;
  matched_pis : int;
  matched_flops : int;
  matched_pos : int;
  ties : tie list;  (** applied ties (user + conventions), sorted by name *)
  free_inputs : string list;  (** unmatched right inputs left free *)
  extra_outputs : string list;  (** right outputs not checked (inclusion) *)
  extra_flops : string list;  (** right flip-flops not in the left circuit *)
  classes : int;  (** candidate classes shared by both circuits *)
  proved : int;  (** internal equivalences proven and substituted *)
  sat_calls : int;
  decisions : int;
  propagations : int;
  cached : bool;  (** replayed from the result cache *)
}

val points : result -> int
(** Matched observation points: [matched_pos + matched_flops]. *)

val check : ?options:options -> Tvs_netlist.Circuit.t -> Tvs_netlist.Circuit.t -> result
(** [check left right] decides whether [right] preserves [left]'s function
    at every matched observation point, under the ties. The per-point
    checks fan out over {!Tvs_util.Pool.default_jobs} domains; the result is
    identical for every value.
    The whole check is memoized in the installed result cache
    ({!Tvs_store.Cache.memo}) under {!cache_kind}, keyed by both circuit
    digests and the options; a replayed result has [cached = true].
    Raises {!Mismatch}. *)

val cache_kind : string
(** ["CEQV"]. *)

val schema_version : int

val check_key : options:options -> Tvs_netlist.Circuit.t -> Tvs_netlist.Circuit.t -> Tvs_store.Digest.t
(** The cache key [check] uses. *)

val encode_result : Tvs_util.Wire.writer -> result -> unit
val decode_result : Tvs_util.Wire.reader -> result
(** Wire codec for the cache entry; decoded results carry [cached = true]. *)

val verdict_name : verdict -> string
(** ["equivalent"], ["inequivalent"] or ["unknown"]. *)

val to_ascii : result -> string
val to_json : result -> Tvs_obs.Json.t
val to_json_string : result -> string
(** Renderings. [cached] is deliberately omitted so a cache-replayed check
    prints byte-identically to the run that produced it. *)
