(** Event-driven, cone-restricted counterpart of {!Parallel}.

    The fault-free (broadcast) evaluation of a stimulus is done once, by
    {!set_stimulus}; each subsequent {!run} seeds lane events only at its
    injection sites (and at scan-state words that deviate from the broadcast
    baseline) and re-evaluates only the gates those events actually reach —
    i.e. work is proportional to the disturbed part of the fault cones, not
    to circuit size. Results are bit-exact with {!Parallel.run} on the same
    stimulus and injections.

    The win comes from amortizing: one [set_stimulus] serves every fault
    chunk of a batch, so per-chunk cost collapses from O(gates) to O(cone
    activity). Not thread-safe. *)

type t

val create : ?soa:Soa.t -> Tvs_netlist.Circuit.t -> t
(** [?soa] supplies a pre-built flat gate table (it must wrap the same
    circuit, physically); when omitted one is built. Sharing one {!Soa.t}
    across the contexts of a fan-out avoids rebuilding the tables per slot.

    Raises [Invalid_argument] if [soa] wraps a different circuit. *)

val circuit : t -> Tvs_netlist.Circuit.t

val soa : t -> Soa.t
(** The flat gate table this context sweeps over (shared, read-only). *)

val set_stimulus : t -> pi:bool array -> state:bool array -> unit
(** Evaluate the fault-free machine once for a single-machine stimulus and
    cache it as the baseline for subsequent {!run} calls. One bool per
    primary input / flip-flop.

    Raises [Invalid_argument] on dimension mismatches. *)

val adopt_baseline : t -> from:t -> unit
(** [adopt_baseline t ~from] installs [from]'s current baseline (its last
    {!set_stimulus}) into [t] by copying the cached fault-free net values —
    O(nets) blits, no gate evaluations. Both contexts must wrap the same
    circuit, and [from] must have a stimulus set. After the call, {!run} on
    [t] behaves exactly as on [from]; [from] is not modified and may keep
    running concurrently in another domain (its baseline is only read). *)

val good_po : t -> bool array
(** Fault-free primary-output response of the current stimulus. Fresh arrays
    per {!set_stimulus}; callers may retain them. *)

val good_capture : t -> bool array
(** Fault-free captured next state of the current stimulus. *)

val compile : t -> Inject.injection array -> Inject.plan
(** {!Inject.compile} against this context's override tables: validates the
    injections once and pre-merges their lane masks. The returned plan is
    immutable and shared freely across sibling contexts of the same circuit
    — compile on the submitter, run on any pool slot. *)

val run : t -> ?states:int array -> plan:Inject.plan -> unit -> Parallel.result
(** [run t ~plan ()] simulates the compiled faults against the baseline
    stimulus (every lane sees the {!set_stimulus} vector). [?states]
    optionally supplies lane-packed per-flop scan words replacing the
    baseline state — used when hidden faults evolve divergent states; lane 0
    must then carry the baseline (good) state.

    Raises [Invalid_argument] if no stimulus is set or on dimension
    mismatches. *)

val run_diff : t -> ?states:int array -> plan:Inject.plan -> used:int -> unit -> int
(** [run_diff t ~plan ~used ()] simulates exactly like {!run} but
    returns only the lane-difference mask: the OR, over every primary output
    and every captured next-state bit, of [(word lxor broadcast(lane0)) land
    used]. A set bit at lane [l] means lane [l]'s machine is distinguishable
    from the fault-free lane 0 at some observation point — precisely the
    detection criterion used by screening.

    Equivalent to running {!run} and folding the result through the lane
    difference masks, but allocation-free: the observability scan walks only
    the disturbed nets, so its cost follows cone activity rather than the
    output and flop counts. *)

val last_events : t -> int
(** Net-value changes fired by the last {!run}. *)

val last_evals : t -> int
(** Gate evaluations performed by the last {!run}. *)

val full_evals : t -> int
(** Gate evaluations a full broadcast pass would perform (topo-order
    length) — the denominator for skip ratios. *)
