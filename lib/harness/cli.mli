(** Argument validation and cmdliner terms shared by the [tvs] CLI, the
    bench CLI and the test suite. Every checker returns [Error msg] instead
    of raising, so both CLIs surface bad input as a cmdliner usage error
    with a non-zero exit, and the tests can cover the rejection paths
    directly. *)

val check_spec : string -> (string, string) result
(** A circuit spec is a benchmark profile name, ["s27"], ["fig1"], or a path
    to an existing netlist file ([.bench] or structural Verilog). *)

val check_profile : string -> (string, string) result
(** A benchmark profile name (s444 ... s38584); the error names the known
    profiles. The study commands take only these: s27 and fig1 have no
    profile. *)

val load_circuit :
  ?scale:float -> ?format:Tvs_verilog.Loader.format -> string -> (Tvs_netlist.Circuit.t, string) result
(** Validate [spec] and build the circuit. [scale] (default 1.0) applies to
    profile circuits only. File specs are parsed through
    {!Tvs_verilog.Loader} — format forced by [format], else auto-detected by
    extension then content — and parse failures render as
    ["path:line: message"]. *)

val parse_format : string -> (Tvs_verilog.Loader.format option, string) result
(** The [--format] / job-field vocabulary: ["auto"] ([None]), ["bench"],
    ["verilog"]. Shared between the CLI and the serve protocol. *)

val parse_scheme : string -> (Tvs_scan.Xor_scheme.t, string) result
(** ["nxor"] | ["vxor"] | ["hxor:<taps>"] — the [--scheme] vocabulary,
    shared with the serve protocol's ["scheme"] job field. *)

val parse_selection : string -> (Tvs_core.Policy.selection, string) result
(** ["random"] | ["hardness"] | ["most-faults"] | ["weighted"] — the
    [--selection] vocabulary, shared with the serve protocol. *)

val check_positive : string -> int -> (int, string) result
(** [check_positive name n]: [n] must be at least 1; the error names
    [name]. *)

val check_non_negative : string -> int -> (int, string) result
(** [check_non_negative name n]: [n] must be at least 0; the error names
    [name]. *)

val check_shift : int -> (int, string) result
(** Fixed shift size: at least 1. *)

val check_port : int -> (int, string) result
(** A TCP port for [tvs serve --port]: 1 to 65535. *)

val inline_file_name : ?format:Tvs_verilog.Loader.format -> string -> string
(** The circuit name {!inline_circuit} gives the text plus the extension of
    the resolved format ([.bench] / [.v]): the file name serve uses to
    persist inline text, which reparses to the same circuit. *)

val parse_inline : file_name:string -> string -> (Tvs_netlist.Circuit.t, string) result
(** [parse_inline ~file_name text] parses [text] under the name
    {!inline_file_name} gave it: the circuit is named after the file name's
    stem, in the format its extension records. It digests nothing, so a
    caller that already holds the file name (serve, keying its table of
    parsed texts) pays for one digest per text. [Error] carries the source
    line. *)

val inline_circuit :
  ?format:Tvs_verilog.Loader.format -> string -> (Tvs_netlist.Circuit.t, string) result
(** Parse an inline netlist text (a serve-protocol job with a ["bench"]
    field), named ["inline-<hex>"] after the text's content digest, so
    identical texts name (and digest) identically; format auto-detected by
    content when absent. [Error] carries the source line.
    [inline_circuit ?format text] is
    [parse_inline ~file_name:(inline_file_name ?format text) text]. *)

val parse_ties : string -> ((string * bool) list, string) result
(** The [--scan-map] / serve ["scan_map"] vocabulary: comma-separated
    [name=0|1] pin ties for the equivalence checker (e.g.
    ["scan_en=0,test_mode=1"]). Whitespace-tolerant; empty entries are
    skipped; the empty string is the empty list. *)

val check_table : int -> (int, string) result
(** The paper has tables 1-5. *)

val check_jobs : int -> (int, string) result
(** Fan-out width for the fault-simulation domain pool: at least 1. *)

val check_scale : float -> (float, string) result
(** Profile scale factor: must lie in (0, 1]. Values above 1 would blow up
    synthetic profiles past their reference sizes, and non-positive values
    silently produce empty circuits and degenerate tables. *)

val check_checkpoint_every : int -> (int, string) result
(** Checkpoint period in stitched cycles: at least 1. *)

val check_resume_file : string -> (string, string) result
(** The checkpoint file to resume from must exist (its contents are
    validated later, by {!Tvs_store.Checkpoint.load}). *)

(** {1 Cmdliner terms}

    The flags [tvs] and [bench] share, so the two accept and reject exactly
    the same values. *)

val conv : docv:string -> (string -> (string, string) result) -> string Cmdliner.Arg.conv
(** A string argument checked by one of the validators above (e.g.
    {!check_spec}); [Error msg] is a usage error. *)

val int_conv : docv:string -> (int -> (int, string) result) -> int Cmdliner.Arg.conv
(** An integer argument checked by [check] (e.g. {!check_jobs}); a
    non-integer is rejected before [check] runs. *)

val out_file : flag:string -> string Cmdliner.Arg.conv
(** An output file path the driver will create or overwrite: non-empty, not
    an existing directory, and its parent directory must exist (the write
    happens at exit — failing then would silently lose a whole run).
    [flag] names the offending option in the usage error. *)

val profile : string Cmdliner.Arg.conv
(** A profile name, checked by {!check_profile}. *)

val profiles : string list Cmdliner.Arg.conv
(** A comma-separated list of profile names, each checked by
    {!check_profile}: an empty entry, or an empty list, is an error. *)

val scale : float option Cmdliner.Term.t
(** [--scale F], checked by {!check_scale}; [None] when absent. *)

val jobs : unit Cmdliner.Term.t
(** [--jobs N] / [-j N] / [TVS_JOBS]: installs
    {!Tvs_util.Pool.set_default_jobs}. Absent: nothing is installed. *)

val cache : unit Cmdliner.Term.t
(** [--cache DIR]: opens the result cache and installs it with
    {!Tvs_store.Cache.install}; a directory that cannot be opened is a usage
    error. *)
