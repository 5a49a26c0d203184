(** Gate-level circuit intermediate representation.

    A circuit is a set of {e nets}, each driven by exactly one of: a primary
    input, a flip-flop (whose net is the Q output and which references its D
    data net), a logic gate over fanin nets, or a constant. Flip-flops are
    listed in scan-chain order: [flops.(0)] is the cell nearest scan-in,
    [flops.(n-1)] the cell nearest scan-out.

    The {e combinational core} view used throughout the project treats
    primary inputs and flip-flop Q nets as sources, and primary outputs and
    flip-flop D nets as sinks — the standard full-scan abstraction that turns
    sequential test generation into a combinational problem. *)

type net = int
(** Dense net identifier, [0 .. num_nets - 1]. *)

type driver =
  | Primary_input
  | Flip_flop of net  (** argument = the D (data) input net *)
  | Gate_node of Gate.kind * net array
  | Const of bool

type t

val name : t -> string
val num_nets : t -> int
val driver : t -> net -> driver
val net_name : t -> net -> string

val find_net : t -> string -> net
(** Raises [Failure] with the net and circuit names when no such net exists;
    use {!find_net_opt} when absence is expected. *)

val find_net_opt : t -> string -> net option

val inputs : t -> net array
(** Primary inputs. The returned array must not be mutated. *)

val outputs : t -> net array
val flops : t -> net array

val num_inputs : t -> int
val num_outputs : t -> int
val num_flops : t -> int

val fanout : t -> net -> (net * int) array
(** [fanout c n] lists the consumers of net [n] as (consumer net, pin index)
    pairs. A flip-flop consumes its D net at pin 0. Primary-output
    observation is not a fanout entry. *)

val is_output : t -> net -> bool

val topo_order : t -> net array
(** Gate and constant nets of the combinational core in evaluation order
    (every net appears after all its fanins, with primary inputs and
    flip-flop Q nets taken as sources). Computed once and cached.
    Raises [Failure] if the combinational core has a cycle. *)

val level : t -> net -> int
(** Logic depth: 0 for sources and constants, 1 + max of fanin levels for
    gates. *)

val depth : t -> int
(** Maximum level over all nets. *)

val cone_rep : t -> net -> int
(** A cheap cone-locality key: the smallest-numbered observation point
    (primary-output net, or the Q net of a capturing flip-flop) reachable
    from the net; [max_int] when the net reaches no observation point.
    Computed once per circuit in O(edges) and cached. *)

exception Build_error of string

(** Imperative construction API. Net names must be unique. Flip-flops may be
    declared before their data net exists ([flop_forward] +
    [connect_flop]). *)
module Builder : sig
  type circuit := t
  type b

  val create : string -> b
  val input : b -> string -> net
  val const : b -> ?name:string -> bool -> net
  val gate : b -> ?name:string -> Gate.kind -> net list -> net
  val flop : b -> ?name:string -> net -> net
  (** [flop b d] declares a flip-flop with data input [d]; returns the Q net.
      Scan order follows declaration order. *)

  val flop_forward : b -> string -> net
  (** Declare a flip-flop whose data net is not known yet; returns Q. *)

  val connect_flop : b -> net -> net -> unit
  (** [connect_flop b q d] resolves a forward-declared flip-flop. *)

  val mark_output : b -> net -> unit
  val finish : b -> circuit
  (** Raises [Build_error] on dangling forward flops or arity violations. *)
end

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, #PI, #PO, #FF, #gates. *)

val encode : Tvs_util.Wire.writer -> t -> unit
(** Canonical wire form: net records in index order (name and driver), then
    the output list. The byte form is a function of the circuit structure
    only, so it doubles as the input to content digests. *)

val decode : Tvs_util.Wire.reader -> t
(** Rebuild through {!Builder}, preserving net numbering exactly. Raises
    [Tvs_util.Wire.Error] on truncated input or structural violations
    (unknown tags, dangling references, combinational cycles). *)
