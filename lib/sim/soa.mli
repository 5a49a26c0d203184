(** Flat structure-of-arrays gate representation shared by both simulation
    engines.

    One contiguous int array per gate field — opcode, inversion word, CSR
    fanin offsets, level, CSR gate-fanout — built once per circuit and then
    only read. A levelized sweep walks [order] touching a handful of parallel
    arrays instead of chasing per-gate records and constructor tags, which
    keeps the hot loops of {!Parallel} and {!Event} in cache.

    The encoding folds the eight netlist gate kinds down to three
    fold operators plus a copy, with negation moved into a per-net inversion
    word ([0] or [Lanes.all_mask]): NAND = AND + invert, NOR = OR + invert,
    XNOR = XOR + invert, NOT = copy + invert. Constant drivers ride the same
    kernel as an empty XOR fold whose inversion word broadcasts the constant,
    so the sweep needs no per-net special cases at all.

    The record is exposed read-only so the engines can index its arrays
    directly on their hot paths; treat every field as immutable. A [t] holds
    no mutable state and may be shared freely across domains. *)

type t = private {
  circuit : Tvs_netlist.Circuit.t;
  order : int array;  (** evaluation order: gate and const nets, topological *)
  op : int array;  (** per net: 0 = AND-fold, 1 = OR-fold, 2 = XOR-fold, 3 = copy *)
  inv : int array;  (** per net: output inversion word, [0] or [Lanes.all_mask] *)
  is_gate : bool array;  (** nets driven by a gate (consts excluded) *)
  level_of : int array;  (** topological level per net *)
  depth : int;  (** max level *)
  fanin_base : int array;  (** CSR offsets into [fanin], length nets+1 *)
  fanin : int array;  (** concatenated fanin nets, pin order *)
  sink_base : int array;  (** CSR offsets into [sink], length nets+1 *)
  sink : int array;  (** concatenated gate-net consumers per net *)
  level_pop : int array;  (** gate population per level (scheduling capacity) *)
  flop_d : int array;  (** D net per flop, scan order *)
  is_po : bool array;  (** nets listed as primary outputs *)
  is_flop : bool array;  (** nets driven by a flip-flop *)
  dflop_base : int array;  (** CSR offsets into [dflop], length nets+1 *)
  dflop : int array;  (** flop nets consuming each net as their D input *)
  ffr_root : int array;  (** per net: the root of its fanout-free region *)
  ffr_sink : int array;  (** per net: its one consumer gate, [-1] at a root *)
  ffr_pin : int array;  (** per net: the pin it drives on [ffr_sink], [-1] at a root *)
  ffr_order : int array;  (** every net, level-descending *)
}
(** The fanout-free-region (FFR) table. A net is a {e root} when it is a
    primary output, feeds a flop's D, or has other than exactly one
    consumer ([Circuit.fanout], gate and flop pins alike). Every other net
    drives one pin of one gate and shares that gate's region, so a fault
    inside a region reaches the rest of the circuit only through its root.
    [ffr_root.(r) = r] at a root. *)

val op_and : int
val op_or : int
val op_xor : int
val op_copy : int
(** The values of [op]. *)

val create : Tvs_netlist.Circuit.t -> t
(** Extract the flat tables from a circuit. O(nets + edges); intended to run
    once per circuit and be shared by every engine context over it. *)

val circuit : t -> Tvs_netlist.Circuit.t

val num_evals : t -> int
(** Evaluations one full sweep performs (length of [order]) — the denominator
    for event-driven skip ratios. *)

val eval : t -> int array -> int -> int
(** [eval t values net] computes [net]'s lane-packed word from [values],
    ignoring branch overrides. Bit-exact with the legacy per-record
    evaluation of the corresponding {!Tvs_netlist.Gate.kind}. *)

val eval_inject : t -> Inject.t -> int array -> int -> int
(** Like {!eval} but reads each fanin through {!Inject.fetch}, honouring
    branch overrides installed against [net] as a sink. *)

val pin_sens : t -> int array -> int -> int -> int
(** [pin_sens t values gate pin] is the lane mask where flipping pin [pin]
    of [gate] alone flips the gate's output, every other pin holding its
    value in [values]. *)

val trace_ffr : t -> good:int array -> obs:int array -> unit
(** Critical-path tracing: sets [obs.(net)], for every net, to the lanes
    where flipping [net] alone, against the fault-free words [good], flips
    its region's root. Roots get every lane. O(nets + fanin edges). *)
