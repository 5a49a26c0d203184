(** Multiple-input signature register (MISR) response compaction.

    Competing compression schemes (the paper's Section 2) compact test
    responses into an LFSR-based signature to save output bandwidth, at the
    cost of {e aliasing}: a faulty response sequence can produce the
    fault-free signature and escape detection, and the signature destroys
    the per-cycle data needed for diagnosis. The stitched approach needs no
    MISR — this module exists to {e measure} what that is worth (see the
    [misr] study in the harness and bench).

    The register is a standard type-2 MISR: one new data bit XORs into each
    stage per clock, stage 0 additionally receives the feedback parity of
    the tapped stages. *)

type t

val create : width:int -> taps:int list -> t
(** [taps] are stage indices (0-based) feeding the XOR feedback; they must
    lie in [\[0, width)]. The all-zero register is the reset state. *)

val default_taps : width:int -> int list
(** Feedback taps of a maximal-length polynomial for widths 2..32 (taken
    from the standard LFSR tables); falls back to [width-1; 0] elsewhere. *)

val width : t -> int

val reset : t -> unit

val absorb : t -> bool array -> unit
(** Clock the register once with a data word. Words narrower than the
    register are zero-extended; wider words are folded in by XOR. *)

val absorb_stream : t -> bool array list -> unit

val signature : t -> bool array
(** A copy of the current contents, stage 0 first. *)

val signature_of : width:int -> bool array list -> bool array
(** One-shot: reset, absorb the stream, read the signature, using
    {!default_taps}. *)
