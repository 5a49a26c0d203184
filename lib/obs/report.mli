(** Versioned, machine-readable benchmark reports.

    One report captures a bench invocation: which artifacts ran, how long
    each took, Bechamel ns/run estimates where available, the merged
    {!Metrics} snapshot, and provenance (git revision, jobs, scale). The
    JSON schema is versioned; {!of_json} doubles as the validator. The
    [metrics] section contains only stable metrics, so it is bit-identical
    across [--jobs] values. *)

val schema_version : int
(** Currently 3: v2 added the [tpi] section (test-point-insertion studies
    run by the bench), v3 the [cec] section (equivalence-checker gates).
    Only the current version parses. *)

type bench = { name : string; ns_per_run : float }
(** One Bechamel estimate (micro artifacts only). *)

type run = {
  artifact : string;  (** bench artifact name, e.g. "table5" *)
  circuit : string option;  (** a single-circuit run's circuit, if any *)
  wall_ns : float;  (** wall-clock for the whole artifact *)
  benchmarks : bench list;
}

type tpi_entry = {
  tpi_circuit : string;
  points : int;  (** test points selected *)
  converted_faults : int;  (** statically hidden stem faults made observable *)
  caught : int;  (** of those, caught by the final circuit's own test set *)
  d_coverage : float;  (** final minus base stitched coverage *)
  dm : float;  (** memory-ratio delta *)
  dt : float;  (** test-time-ratio delta *)
}
(** One `tvs tpi` study, summarized for the bench report. The [tpi_]
    prefix on [tpi_circuit] avoids clashing with {!run.circuit}; the JSON
    field is plain ["circuit"]. *)

type cec_entry = {
  cec_circuit : string;
  transform : string;  (** what was gated: ["scan"], ["tpi"], ... *)
  verdict : string;  (** ["equivalent"], ["inequivalent"] or ["unknown"] *)
  points : int;  (** observation points checked *)
  sat_calls : int;
  decisions : int;
}
(** One equivalence-checker gate run by the bench. As with {!tpi_entry},
    the [cec_] prefix avoids clashing with {!run.circuit}; the JSON field
    is plain ["circuit"]. *)

type t = {
  version : int;
  scale : float option;  (** --scale override, if given *)
  jobs : int;  (** resolved fan-out width *)
  git_rev : string option;
  runs : run list;
  tpi : tpi_entry list;  (** test-point-insertion studies, execution order *)
  cec : cec_entry list;  (** equivalence-checker gates, execution order *)
  metrics : Metrics.snapshot;
}

val make :
  ?scale:float -> ?git_rev:string -> ?tpi:tpi_entry list -> ?cec:cec_entry list -> jobs:int ->
  runs:run list -> metrics:Metrics.snapshot -> unit -> t
(** Stamp a report with the current {!schema_version}; [tpi] and [cec]
    default to empty. *)

val to_json : t -> string

val of_json : string -> (t, string) result
(** Parse and validate: schema version (exactly {!schema_version}), field
    presence and types, metric kinds, histogram shape. The error message
    names the offending field. *)

val validate : string -> (unit, string) result
(** [of_json] with the result discarded — the CI gate. *)

val to_table : t -> string
(** Human-readable ASCII rendering (via {!Tvs_util.Table}): one row per
    artifact and benchmark, then a metrics summary line. *)

val git_rev : unit -> string option
(** [git rev-parse --short HEAD] of the working directory, if it is a git
    checkout with git installed; [None] otherwise. *)
