(** Event-driven, cone-restricted counterpart of {!Parallel}.

    The fault-free evaluation of a stimulus is done once, by
    {!set_packed_stimulus} (or its broadcast case {!set_stimulus}); each
    subsequent run seeds lane events only where it deviates from that
    baseline — injection sites, scan-state words, a flipped net — and
    re-evaluates only the gates those events actually reach, i.e. work is
    proportional to the disturbed part of the fault cones, not to circuit
    size. Results are bit-exact with {!Parallel.run} on the same stimulus
    and injections.

    The win comes from amortizing: one stimulus serves every fault chunk
    or root flip against it, so per-run cost collapses from O(gates) to
    O(cone activity). Not thread-safe. *)

type t

val create : ?soa:Soa.t -> Tvs_netlist.Circuit.t -> t
(** [?soa] supplies a pre-built flat gate table (it must wrap the same
    circuit, physically); when omitted one is built. Sharing one {!Soa.t}
    across the contexts of a fan-out avoids rebuilding the tables per slot.

    Raises [Invalid_argument] if [soa] wraps a different circuit. *)

val circuit : t -> Tvs_netlist.Circuit.t

val soa : t -> Soa.t
(** The flat gate table this context sweeps over (shared, read-only). *)

val set_packed_stimulus : t -> pi:int array -> state:int array -> unit
(** Evaluate the fault-free machines once, lane by lane, and cache them as
    the baseline for subsequent runs: [pi] holds one lane-packed word per
    primary input, [state] one per flip-flop, so lane [k] may carry a
    vector of its own. One full pass ([sim.event.full_passes]).

    Raises [Invalid_argument] on dimension mismatches. *)

val set_stimulus : t -> pi:bool array -> state:bool array -> unit
(** The broadcast case of {!set_packed_stimulus}: every lane applies the one
    vector, one bool per primary input / flip-flop. *)

val adopt_baseline : t -> from:t -> unit
(** [adopt_baseline t ~from] installs [from]'s current baseline (its last
    stimulus) into [t] by copying the cached fault-free net values —
    O(nets) blits, no gate evaluations. Both contexts must wrap the same
    circuit, and [from] must have a stimulus set. After the call, {!run} on
    [t] behaves exactly as on [from]; [from] is not modified and may keep
    running concurrently in another domain (its baseline is only read). *)

val good : t -> int array
(** The lane-packed fault-free value of every net under the current
    stimulus. A view of the context's own table: read it, never write it;
    the next stimulus overwrites it. *)

val good_po : t -> bool array
(** Lane 0's fault-free primary-output response. A fresh array per call;
    callers may retain it. *)

val good_capture : t -> bool array
(** Lane 0's fault-free captured next state. *)

val compile : t -> Inject.injection array -> Inject.plan
(** {!Inject.compile} against this context's override tables: validates the
    injections once and pre-merges their lane masks. The returned plan is
    immutable and shared freely across sibling contexts of the same circuit
    — compile on the submitter, run on any pool slot. *)

val run : t -> ?states:int array -> plan:Inject.plan -> unit -> Parallel.result
(** [run t ~plan ()] simulates the compiled faults against the baseline
    stimulus (lane [k] applies the baseline's vector [k]; under
    {!set_stimulus} every lane sees the one vector). [?states]
    optionally supplies lane-packed per-flop scan words replacing the
    baseline state — used when hidden faults evolve divergent states; lane 0
    must then carry the baseline (good) state.

    Raises [Invalid_argument] if no stimulus is set or on dimension
    mismatches. *)

val run_diff : t -> ?states:int array -> plan:Inject.plan -> used:int -> unit -> int
(** [run_diff t ~plan ~used ()] simulates exactly like {!run} but
    returns only the lane-difference mask: the OR, over every primary output
    and every captured next-state bit, of [(word lxor good) land used],
    where [good] is that lane's own fault-free word. A set bit at lane [l]
    means lane [l]'s machine is distinguishable from its fault-free machine
    at some observation point — precisely the detection criterion used by
    screening. Under a broadcast stimulus whose lane 0 no injection
    touches, this is the comparison against lane 0.

    Equivalent to running {!run} and folding the result through the lane
    difference masks, but allocation-free: the observability scan walks only
    the disturbed nets, so its cost follows cone activity rather than the
    output and flop counts. *)

val run_flip : t -> net:Tvs_netlist.Circuit.net -> lanes:int -> used:int -> int
(** [run_flip t ~net ~lanes ~used] flips [net]'s fault-free value in
    [lanes], propagates the flip like {!run_diff} propagates a plan, and
    returns the same lane-difference mask over [used]. The flipped machine
    of lane [l] is the fault-free machine of lane [l] with [net] inverted:
    the stem fault stuck at the opposite of [net]'s value, which is the
    faulty machine of every fault whose effect reaches [net] and nothing
    else.

    Raises [Invalid_argument] if no stimulus is set. *)

val last_events : t -> int
(** Net-value changes fired by the last {!run}. *)

val last_evals : t -> int
(** Gate evaluations performed by the last {!run}. *)

val full_evals : t -> int
(** Gate evaluations a full broadcast pass would perform (topo-order
    length) — the denominator for skip ratios. *)
