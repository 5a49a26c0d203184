(** Structured lint findings.

    Every finding carries a stable rule identifier (see {!catalog}), a
    severity, the net names involved, and — when the circuit came from a
    `.bench` file — the source line of the primary net. Rule identifiers are
    part of the tool's contract: scripts filter on them (`tvs lint --rules`)
    and CI gates on severities, so an id is never reused or renumbered. *)

type severity = Error | Warning | Info

val severity_rank : severity -> int
(** [Error] = 3, [Warning] = 2, [Info] = 1 — total order for [--fail-on]
    thresholds. *)

val severity_to_string : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

type t = {
  rule : string;  (** stable id, e.g. ["TVS-N001"] *)
  severity : severity;  (** the rule's catalog severity *)
  message : string;
  nets : string list;  (** involved net names, most significant first *)
  line : int option;  (** `.bench` source line of the primary net *)
  hint : string option;  (** optional fix suggestion *)
}

type rule_info = { id : string; default_severity : severity; title : string }

val catalog : rule_info list
(** Every rule the three pass families can emit, in id order. The catalog is
    the single source of severities: {!make} looks the severity up here. *)

val known_rule : string -> bool

val matches : string -> rule : string -> bool
(** [matches filter ~rule]: the filter is an exact id or an id prefix
    (["TVS-N"] selects the whole structural family). *)

val make :
  ?nets:string list -> ?line:int -> ?hint:string -> rule:string -> string -> t
(** [make ~rule message]. Raises [Invalid_argument] on an id missing from
    {!catalog} — an unknown rule is a programming error, not an input
    error. *)

val to_ascii : t -> string
(** One line: severity, rule id, optional [line N], message, optional
    hint. No trailing newline. *)

val to_json : t -> Tvs_obs.Json.t
(** Object with members [rule], [severity], [message], [nets], [line]
    (number or null), [hint] (string or null) — always all six, in that
    order, so renderings are byte-stable. *)

val encode : Tvs_util.Wire.writer -> t -> unit
val decode : Tvs_util.Wire.reader -> t
(** Raises [Tvs_util.Wire.Error] on malformed input. *)
