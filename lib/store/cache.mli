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
    unstable: cache traffic legitimately varies across runs).

    One handle is installed per process ({!install}, from the drivers'
    [--cache DIR]); every cached result goes through {!memo} against it. *)

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

(** {1 The installed cache} *)

val install : t option -> unit
(** Install (or, with [None], clear) the process-wide cache that {!memo}
    consults. *)

val memo :
  kind:string ->
  key:(unit -> Digest.t) ->
  (Tvs_util.Wire.writer -> 'a -> unit) ->
  (Tvs_util.Wire.reader -> 'a) ->
  (unit -> 'a) ->
  'a * bool
(** [memo ~kind ~key encode decode compute]: without an installed cache,
    [compute ()]. With one, the decoded entry under [key ()] ({!find});
    on a miss, [compute ()] stored back ({!store}). The flag is the cache's
    answer: [true] only when the value was decoded from an entry, so
    [false] without a cache, on a miss and on a damaged entry. It is the
    one source of every [cached] flag a caller reports. [key] runs only
    when a cache is installed. Adds no trace span and no metric of its
    own, and may run on pool workers. *)

val hits : unit -> int
val misses : unit -> int
val evictions : unit -> int
