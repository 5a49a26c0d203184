(** Plain-text ATE program interchange.

    The paper stresses that "seen from the vantage point of an ATE, the
    proposed scheme is identical to regular scan based application": a
    stitched schedule is nothing but shift and capture operations. This
    module serialises exactly that — a {!Protocol.op} sequence with its
    chain geometry — so a schedule can leave the generator, live in version
    control or on a tester, and come back bit-identically.

    Format (one statement per line, [#] comments):
    {v
      tvs-program v1
      chain <L>
      pins <PI>
      shift <bit>
      capture <PI bits as 0/1, empty allowed>
    v} *)

type program = { chain_len : int; npi : int; ops : Protocol.op list }

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val of_stitched :
  chain_len:int ->
  npi:int ->
  vectors:(bool array * bool array) list ->
  program
(** Build the op sequence for [(pi, fresh)] stitched vectors plus a trailing
    unload of the whole chain. *)

val to_string : program -> string
val of_string : string -> program

val write_file : string -> program -> unit
val read_file : string -> program

val num_shift_cycles : program -> int
val num_captures : program -> int
