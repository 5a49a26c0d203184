(** Fibonacci LFSR pseudo-random pattern generator.

    The building block of the BIST-style schemes the paper competes with
    (virtual scan chains, DFHTC) and of the classic random-testability
    measure: the fraction of faults a short pseudo-random sequence detects
    separates "easy" circuits like s35932 — which the paper singles out for
    its drastic compression — from ATPG-bound ones. See the
    [random-testability] study in the harness. *)

type t

val create : ?seed:int -> width:int -> unit -> t
(** Taps are the maximal-length defaults of {!Misr.default_taps}. A zero
    [seed] (the lock-up state) is replaced by 1. Default seed 1. *)

val next_vector : t -> int -> bool array
(** [next_vector t n] advances [n] clocks and collects the [n] bits leaving
    the register. *)

val state : t -> bool array
(** A copy of the register, stage 0 first. *)

val period_is_maximal : width:int -> bool
(** Whether the default taps for this width cycle through all [2^w - 1]
    nonzero states (checked by enumeration; meant for small widths in
    tests). *)
