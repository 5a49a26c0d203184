(** External cross-validation against an event-driven Verilog simulator.

    The whole project rests on one in-house simulator; this module is its
    independent oracle. A circuit and a test program are rendered to
    structural Verilog ({!Emitter}) plus a self-checking testbench, compiled
    with [iverilog], executed with [vvp], and the external simulator's
    observation trace is compared line-by-line against the internal
    fault-free simulation.

    Both sides speak the same trace language, one line per observation:
    - [S b] — the scan-out bit sampled on a shift cycle (pre-edge);
    - [C bbb…b] — the primary outputs sampled on a capture cycle (or on a
      combinational vector application), most-significant-index first.
    Capture lines are omitted when the circuit has no primary outputs.

    When no external simulator is on PATH the check {e skips} — visibly,
    never silently — so developer machines without iverilog stay green
    while CI (which installs it) exercises the real comparison. *)

type program =
  | Comb of bool array list
      (** apply each primary-input vector to a flop-free circuit *)
  | Scan of Tvs_scan.Protocol.op list
      (** cycle-accurate scan schedule for a sequential circuit *)

type verdict =
  | Agree of { observations : int }  (** traces identical, this many lines *)
  | Disagree of { index : int; internal_ : string; external_ : string }
      (** first diverging trace line (0-based); empty string = missing line *)
  | Skipped of string  (** no external simulator; the reason to show *)
  | Tool_error of string  (** iverilog/vvp failed; diagnostic output *)

val internal_trace : Tvs_netlist.Circuit.t -> program -> string list
(** The internal simulator's observation trace. [Scan] programs run on the
    scan-inserted netlist from an all-zero chain, mirroring the emitted
    testbench's reset state. Raises [Invalid_argument] when the program
    kind does not match the circuit (a [Comb] program on a sequential
    circuit or vice versa). *)

val testbench : Emitter.t -> program -> expected:string list -> string
(** Self-checking testbench text: drives the program, [$display]s each
    trace line, compares against [expected] (the internal trace) and ends
    with [TVS-XCHECK PASS] or [TVS-XCHECK FAIL <n>]. *)

val run : ?workdir:string -> Tvs_netlist.Circuit.t -> program -> verdict
(** Emit, compile, execute, compare. Artifacts ([design.v], [cells.v],
    [tb.v], compiled [sim.vvp] and logs) are written to [workdir] (default:
    a fresh directory under the system temp dir) and left in place for
    inspection. *)
