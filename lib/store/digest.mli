(** Content digests over canonical {!Tvs_util.Wire} encodings.

    64-bit SplitMix64-chain hash (the same finalizer as {!Tvs_util.Rng}): each
    8-byte little-endian block is folded through [mix64], seeded with the
    input length. Not cryptographic — it keys the on-disk result cache and
    guards checkpoint/run compatibility, where accidental divergence is the
    threat model, not an adversary. Encodings are host-independent, so
    digests agree across machines. *)

type t

val equal : t -> t -> bool
val compare : t -> t -> int

val to_hex : t -> string
(** 16 lowercase hex digits. *)

val of_string : string -> t

val of_encoding : (Tvs_util.Wire.writer -> unit) -> t
(** Digest of whatever the callback writes. *)

val combine : t -> t -> t
(** Order-sensitive: [combine a b <> combine b a] in general. *)

val circuit : Tvs_netlist.Circuit.t -> t
(** Digest of the canonical circuit encoding: nets, drivers, names, outputs.
    Two structurally identical circuits digest equally; any netlist change
    does not. *)

val config : config:Tvs_core.Engine.config -> label:string -> t
(** Digest of every engine-configuration field that affects results, plus the
    experiment label (which seeds the engine RNG). [preflight] is
    deliberately excluded: it never changes the result of a run that passes
    it, so cached results are shared across it. *)

val encode : Tvs_util.Wire.writer -> t -> unit
val decode : Tvs_util.Wire.reader -> t
