(** Content-addressed on-disk result cache.

    Entries live in one flat directory as CRC-trailered {!Codec} frames,
    named [<kind>-v<schema>-<key>.tvsc] where [key] is the hex {!Digest} of
    everything that determines the result (typically
    [Digest.combine (Digest.circuit c) (Digest.config ...)]). The schema
    version in the file name keeps entries from different code generations
    from ever colliding; the frame's own version byte and CRC catch the rest.

    A corrupt or stale entry is evicted (deleted) on lookup and reported as
    a miss — damage degrades to recomputation, never to a crash or a wrong
    result. Lookups and stores count on the [tvs_obs] metrics registry
    ([store.cache.hits] / [.misses] / [.evictions] / [.stores], all
    unstable: cache traffic legitimately varies across runs). *)

type t

val open_dir : string -> (t, string) result
(** {!Codec.ensure_dir} with flag [--cache]. *)

val dir : t -> string

val entry_path : t -> kind:string -> key:Digest.t -> string
(** Where an entry is (or would be) stored; exposed for tests. *)

val find : t -> kind:string -> key:Digest.t -> (Tvs_util.Wire.reader -> 'a) -> 'a option
(** [None] on absence ([store.cache.misses]) and on any damaged or
    incompatible entry, which is also deleted ([store.cache.evictions]). *)

val store : t -> kind:string -> key:Digest.t -> (Tvs_util.Wire.writer -> unit) -> unit
(** Atomic write (temp + rename); concurrent writers of the same key are
    safe, last one wins with identical bytes. Raises [Sys_error] on I/O
    failure. *)

val hits : unit -> int
val misses : unit -> int
val evictions : unit -> int
