(** Regeneration of every table and figure of the paper's evaluation.

    Each [tableN] function runs the corresponding experiment and renders an
    ASCII table with the paper's columns (plus an average row). The [scale]
    argument shrinks profile circuits (see DESIGN.md §5, "Scaling note");
    every value printed is measured against this repository's own baseline on
    the same circuit, exactly as the paper computes its ratios against its
    own ATALANTA baseline. *)

type run_summary = {
  atv : int;
  tv : int;
  ex : int;
  m : float;
  t : float;
  coverage : float;
  peak_hidden : int;
}

val summary_kind : string
(** Cache frame kind of stored run summaries (["EXPR"]); exposed so the
    serve daemon can ask {!Tvs_store.Cache.mem} whether a job is cached. *)

val render_summary :
  circuit:string ->
  scheme:Tvs_scan.Xor_scheme.t ->
  selection:Tvs_core.Policy.selection ->
  run_summary ->
  string
(** Exactly the summary block [tvs stitch]/[tvs resume] print: the serve
    daemon and the loadgen verifier both render through this, which is what
    makes "server response byte-identical to the one-shot CLI" hold by
    construction. *)

val write_summary : Tvs_util.Wire.writer -> run_summary -> unit
val read_summary : Tvs_util.Wire.reader -> run_summary
(** The cache wire form of a summary — shared with [Tvs_tpi], whose study
    entries embed per-point summaries. [read_summary] raises
    [Tvs_util.Wire.Error] on malformed input. *)

val config_for :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?shift:Tvs_core.Policy.shift_policy ->
  ?selection:Tvs_core.Policy.selection ->
  ?preflight:bool ->
  Prep.t ->
  Tvs_core.Engine.config
(** The exact engine configuration {!run_flow} would run with. *)

val run_key :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?shift:Tvs_core.Policy.shift_policy ->
  ?selection:Tvs_core.Policy.selection ->
  label:string ->
  Prep.t ->
  Tvs_store.Digest.t
(** The result-cache key of the {!run_flow} call with the same arguments:
    the circuit digest combined with the configuration digest. *)

val checkpoint_record :
  spec:string ->
  scale:float ->
  scheme:Tvs_scan.Xor_scheme.t ->
  selection:Tvs_core.Policy.selection ->
  shift:int option ->
  label:string ->
  Prep.t ->
  Tvs_core.Engine.snapshot ->
  Tvs_store.Checkpoint.t
(** The checkpoint of a run, identified by its spec, options and the
    digests of the circuit and engine configuration. Apply it up to the
    [Prep.t] once per run: the digests are computed then, and each snapshot
    only fills in the record. *)

val verify_checkpoint : Tvs_store.Checkpoint.t -> Prep.t -> (unit, string) result
(** [Ok ()] when [prep] and the checkpoint's own options rebuild both
    digests it carries. Resuming into another circuit or configuration would
    continue into silently wrong results, so callers refuse on [Error]. *)

val lint_report :
  ?options:Tvs_lint.Lint.options ->
  ?lines:(string, int) Hashtbl.t ->
  Tvs_netlist.Circuit.t ->
  Tvs_lint.Lint.report
(** {!Tvs_lint.Lint.run} behind the installed result cache
    ({!Tvs_store.Cache.memo}): the report is stored under kind ["LINT"],
    keyed by the circuit digest combined with the lint schema version, the
    options and the source line table — any change to the netlist, the rule
    set or the knobs recomputes instead of replaying. *)

val run_engine :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?shift:Tvs_core.Policy.shift_policy ->
  ?selection:Tvs_core.Policy.selection ->
  ?preflight:bool ->
  ?resume:Tvs_core.Engine.snapshot ->
  ?checkpoint:int * (Tvs_core.Engine.snapshot -> unit) ->
  label:string ->
  Prep.t ->
  Tvs_core.Engine.result
(** The engine run behind {!run_flow}, uncached: {!config_for} the options,
    the RNG {!Prep.engine_seed} of [label], the baseline vectors as the
    fallback. [tvs export]/[tvs xcheck] and the TPI confirmation replay
    call it for the full stimuli a summary does not keep. *)

val run_flow :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?shift:Tvs_core.Policy.shift_policy ->
  ?selection:Tvs_core.Policy.selection ->
  ?preflight:bool ->
  ?resume:Tvs_core.Engine.snapshot ->
  ?checkpoint:int * (Tvs_core.Engine.snapshot -> unit) ->
  label:string ->
  Prep.t ->
  run_summary
(** One stitched run on a prepared circuit, defaults: NXOR, variable shift,
    most-faults selection. Fault simulation fans out at
    {!Tvs_util.Pool.default_jobs}; the summary is bit-identical for every
    value. [preflight] (default off) aborts with [Failure] on
    error-severity lint findings before the engine starts; it never changes
    the results of a run that passes, so cache keys and checkpoint digests
    ignore it. Exposed for the examples and the CLI.

    When a cache is installed ({!Tvs_store.Cache.install}) and neither
    [resume] nor [checkpoint] is given, a prior identical run's summary is
    returned without running the engine; computed summaries are stored
    back, also by resumed and checkpointing runs. [resume] and [checkpoint]
    pass through to {!Tvs_core.Engine.run} — a resumed run's summary is
    identical to the uninterrupted run's. *)

type detection = { detected : int; faults : int; vectors : int }

val baseline_detection : Prep.t -> detection
(** Fault-simulate the baseline test set over the collapsed fault list (the
    [tvs faultsim] measurement). Cached under the circuit digest in the
    installed cache — the baseline set is a deterministic function of the
    circuit. *)

val table1 : unit -> string
(** The Section 3 worked example: the fault behaviour table regenerated from
    the Figure 1 circuit (including the fault-set evolution summary). *)

val table2 : ?scale:float -> ?circuits:string list -> unit -> string
(** Size and type of shifting: fixed shifts at info ratios 3/8, 5/8, 7/8
    ('/' where unattainable) and the variable-shift scheme. *)

val table3 : ?scale:float -> ?circuits:string list -> unit -> string
(** Hidden-fault observability: NXOR vs VXOR vs HXOR (3 taps). *)

val table4 : ?scale:float -> ?circuits:string list -> unit -> string
(** Vector selection: random vs hardness vs most-faults. *)

val table5 : ?scale:float -> ?circuits:string list -> unit -> string
(** Large circuits under the best scheme (variable shift + most-faults +
    NXOR), with I/O and scan-length columns. It prints only the rows, so it
    is the same whether they were computed or replayed from the installed
    cache; the fault-simulation work is in the [faultsim.*] metrics. *)

val ablations : ?scale:float -> ?circuit:string -> unit -> string
(** The DESIGN.md §6 design-choice ablations: parallel vs serial fault
    simulation, domain-pool scaling at 1/2/4/{!Tvs_util.Pool.default_jobs}
    domains (wall clock), SCOAP-guided vs naive backtrace, fault dropping
    on/off, collapsing on/off. *)

val misr_study : ?scale:float -> ?circuit:string -> unit -> string
(** Quantifies the paper's "no MISR, no aliasing" motivation: compacts every
    fault's response stream into MISRs of several widths and reports the
    aliasing escapes and the diagnostic-resolution loss relative to the
    stitched flow's exact per-cycle observation. *)

val comparison_study : ?scale:float -> ?circuits:string list -> unit -> string
(** The Section 2 qualitative argument, measured: static vector reordering
    (Su & Hwang-style, separate-chain assumption) versus the paper's stitched
    generation, on memory and time ratios. *)

val random_testability : ?patterns:int -> ?circuits:string list -> unit -> string
(** LFSR random-pattern fault coverage after 32 / 128 / [patterns] patterns
    per circuit — the classic easy-vs-hard separation that explains the
    paper's s35932 outlier (Table 5). Giants run at their default Table 5
    scale. *)

val diagnosis_study : ?scale:float -> ?circuit:string -> unit -> string
(** Dictionary-based diagnosis with the baseline test set: detected faults,
    distinguishable classes and average resolution — the concrete form of
    the paper's "no loss of information for fault diagnosis". *)

val table5_default_scale : string -> float
(** Per-circuit default scale used by the benches: 1.0 up to s5378, 0.5 for
    s9234, 0.25 for the four giants. *)

val table24_default_scale : string -> float
(** Default scale for the Table 2-4 circuits (0.5 for s9234). *)
