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
(** Cache frame kind of stored run summaries (["EXPR"]). *)

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
(** The exact engine configuration {!run_flow} would run with. It reads only
    the circuit's scan chain length. *)

val run_key :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?shift:Tvs_core.Policy.shift_policy ->
  ?selection:Tvs_core.Policy.selection ->
  label:string ->
  Tvs_netlist.Circuit.t ->
  Tvs_store.Digest.t
(** The result-cache key of the {!run_flow} call with the same arguments on a
    preparation of this circuit, and of the {!stitch} of the same run: the
    circuit digest combined with the configuration digest. *)

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

    The run makes one {!Tvs_store.Cache.memo} call: with a cache installed
    ({!Tvs_store.Cache.install}), a prior identical run's summary is
    returned without running the engine, and a computed one is stored.
    Without a cache it computes no digest and consults no memo.
    [checkpoint] passes through to {!Tvs_core.Engine.run}, so a run the
    cache answers takes no snapshot. *)

val stitch :
  spec:string ->
  scale:float ->
  scheme:Tvs_scan.Xor_scheme.t ->
  selection:Tvs_core.Policy.selection ->
  shift:int option ->
  label:string ->
  ?preflight:bool ->
  ?resume:Tvs_store.Checkpoint.t ->
  ?save:(Prep.t -> (int * (Tvs_store.Checkpoint.t -> unit)) option) ->
  Tvs_netlist.Circuit.t ->
  (run_summary * bool, string) result
(** The stitched run behind [tvs stitch], [tvs resume] and serve's stitch
    jobs, on a circuit under the run's identity ([spec] and [scale] name the
    circuit it was built from, [shift] is a fixed shift or [None] for the
    variable policy, [label] seeds the engine). Returns the summary and the
    cache's answer ({!Tvs_store.Cache.memo}): [true] only when the summary
    was read from the installed cache.

    The circuit is digested once; the digest keys the cache entry (the key
    of {!run_key}), the checkpoint and {!Prep.memo}. A hit reads one entry
    and prepares nothing: only a miss gets the circuit's {!Prep.t}, from
    {!Prep.memo}, and runs {!run_flow}'s engine on it.

    [resume] continues from a checkpoint's snapshot once the identity
    rebuilds both digests it carries; otherwise [Error] says which differs
    (resuming into another circuit or configuration would continue into
    silently wrong results). A resumed run's summary equals the
    uninterrupted run's, so the cache may answer it too. [save] is called
    on a miss with the preparation, before the engine starts; [Some (every,
    write)] makes [write] get the full checkpoint of the run so far every
    [every] stitched cycles, and [None] (the default) takes no snapshot. A
    run the cache answers runs no engine and saves nothing. Raises [Failure]
    when the engine refuses the configuration ({!Tvs_core.Engine.run}). *)

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
