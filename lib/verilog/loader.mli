(** Netlist format detection and dispatch.

    Everywhere the toolkit accepts a netlist spec — [tvs stitch/lint/bench],
    [tvs serve] inline jobs, the cache layer — the format is resolved here,
    so the rules stay identical across entry points:

    - extension [.v], [.sv] or [.vlog] → Verilog; [.bench] → bench;
    - otherwise by content: after skipping whitespace and Verilog comments
      ([// …], [/* … */]), a leading [#] means bench, a backtick directive
      or the keyword [module] means Verilog, anything else means bench
      (the historical default). *)

type format = Bench | Verilog

val format_name : format -> string
(** ["bench"] / ["verilog"] — the wire names used by serve job payloads. *)

val format_of_name : string -> format option
(** Inverse of {!format_name}, case-insensitive. [None] for unknown names
    (callers decide whether unknown is an error; it always is on the wire). *)

val extension : format -> string
(** [".bench"] / [".v"] — used when persisting inline netlist text. *)

val detect : ?path:string -> string -> format
(** [detect ?path text] resolves the format of netlist [text]: by [path]'s
    extension when given and recognised, else by content. Never fails. *)

val parse_string : ?format:format -> ?name:string -> string -> Tvs_netlist.Circuit.t
(** Parse netlist text, auto-detecting by content when [format] is absent.
    [name] overrides the circuit name (default: Verilog module name, or
    ["inline"] for bench text). Raises
    {!Tvs_netlist.Bench_format.Parse_error} on malformed input. *)

val load_file : ?format:format -> string -> Tvs_netlist.Circuit.t
(** Read and parse a netlist file, auto-detecting by extension then content.
    Raises [Sys_error] on unreadable paths and [Parse_error] (line numbers
    relative to the file) on malformed input. *)
