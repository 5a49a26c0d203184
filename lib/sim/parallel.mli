(** Word-parallel levelized simulation of the combinational core with
    per-lane stuck-at fault injection.

    Each machine word carries {!Lanes.width} independent machines. Lanes may
    differ in {e stimulus} (per-lane primary-input and scan-state bits) and in
    {e injected fault}; both are needed by the stitching engine, where every
    hidden fault evolves its own scan state and therefore applies its own
    mutated vector.

    This engine is the project's substitute for the HOPE parallel fault
    simulator. *)

type injection = Inject.injection = {
  lane : int;  (** lane carrying the faulty machine, [1 <= lane < Lanes.width] in typical use *)
  stuck : bool;  (** stuck-at value *)
  stem : Tvs_netlist.Circuit.net;  (** the faulted net *)
  branch : (Tvs_netlist.Circuit.net * int) option;
      (** [None] = stem fault (all consumers and observation see it);
          [Some (sink, pin)] = fanout-branch fault visible only to that
          consumer pin. *)
}

type result = {
  po : int array;  (** word per primary output, lane-packed *)
  capture : int array;  (** word per flip-flop: the captured next state *)
}

type t
(** Reusable simulation context (pre-allocated net-value arrays) for one
    circuit. Not thread-safe. *)

val create : Tvs_netlist.Circuit.t -> t

val run : t -> pi:int array -> state:int array -> injections:injection list -> result
(** [run t ~pi ~state ~injections] evaluates the combinational core once.
    [pi] has one lane-packed word per primary input, [state] one word per
    flip-flop (scan order). Lanes not mentioned by any injection behave as
    fault-free machines under their own stimulus.

    Raises [Invalid_argument] on dimension mismatches. *)

val run_single : t -> pi:bool array -> state:bool array -> (bool array * bool array)
(** Fault-free single-machine convenience wrapper; returns (po, capture). *)

val net_values : t -> int array
(** Lane-packed value of every net after the last [run] (valid until the next
    call). Exposed for observability analysis and tests. *)
