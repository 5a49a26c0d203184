(** Netlist application of a test-point candidate set.

    Follows the {!Tvs_netlist.Scan_insert} conventions: the circuit is
    rebuilt net by net through {!Tvs_netlist.Circuit.Builder}, original net
    names survive unchanged, and flip-flop declaration order {e is} scan
    order — observe cells are declared after every original flop, so they
    occupy the chain-tail positions the shifted schedule emits first, and
    the Verilog [Emitter --scan] path stitches them in without special
    cases. The result is a pure function of [(circuit, candidate list)], so
    its {!Tvs_store.Digest.circuit} digest is stable and cache keys built
    from it are sound. *)

val apply : Tvs_netlist.Circuit.t -> Candidate.t list -> Tvs_netlist.Circuit.t
(** Insert every candidate, in list order (which fixes the new chain-tail
    order and the new input/output order). Control points splice a gate
    behind the target net: every reader — downstream gates, flop D pins,
    output marks and observe points — sees the controlled value, while the
    control gate reads the original driver. The result is named
    [<name>_tpi]. Every inserted net is named under the reserved prefix
    [tpi_] ([tpi_obs_<net>], [tpi_po_<net>], [tpi_ctl_<net>],
    [tpi_ctlg_<net>], [tpi_ctln_<net>]), mirroring
    {!Tvs_netlist.Scan_insert}'s reserved scan-pin names.

    Raises {!Tvs_netlist.Circuit.Build_error} when the circuit already
    contains a [tpi_]-prefixed net, a candidate's target net does not
    exist, or the same [(kind, net)] appears twice. *)

val observe_cells : Candidate.t list -> int
(** How many candidates extend the scan chain ([Observe_cell]) — the [k] of
    the matched emitted window [s + k] the evaluation measures risk at. *)
