(** The [tvs serve] daemon: a persistent stitching service over the
    {!Protocol} wire format.

    One scheduler thread drains a FIFO of submitted jobs and runs each
    stitch job through {!Tvs_harness.Experiments.stitch} — one at a time,
    because the engine already parallelizes internally across the shared
    {!Tvs_util.Pool}. Each connection gets a reader thread; cheap verbs
    (status/metrics/ping) are answered inline, and a job's lifecycle events
    stream back over the connection that submitted it. The [done] event's
    ["output"] field carries exactly the bytes [tvs stitch] would print for
    the same job ({!Tvs_harness.Experiments.render_summary}).

    When a result cache is installed ({!Tvs_store.Cache.install}),
    identical jobs dedupe through it: the engine runs once, repeats are
    served from disk. A job is flagged ["cached": true], and counts in
    [serve.jobs.deduped], only when that cache answered it (the flag
    {!Tvs_harness.Experiments.stitch}, [Tpi.result.cached] or
    [Cec.result.cached] carries); without a cache, or with a damaged
    entry, the job recomputes and says so. A stitch job the cache answers
    prepares nothing; a miss prepares its circuit through
    {!Tvs_harness.Prep.memo}. With a state directory, jobs whose collapsed
    fault list reaches [checkpoint_threshold] checkpoint every
    [checkpoint_every] stitched cycles, unless the cache answers them (the
    threshold is read from the preparation a miss builds); at startup the
    server replays any [*.ckpt] files it finds (digest-verified, stale ones
    deleted) before accepting connections, so a SIGTERM mid-job resumes on
    restart and the finished result lands in the cache for the client's
    retry. Inline ["bench"] jobs persist their netlist text into the state
    directory under the content-digest name so their checkpoints survive the
    submitting client. *)

val inline_capacity : int
(** How many inline netlists one daemon lifetime keeps parsed (16). Each
    job's inline text is digested once and looked up under
    {!Tvs_harness.Cli.inline_file_name}, the name [--state] persists it
    under; a text held with equal bytes answers from the table, with its
    circuit and the scan form an [equiv --scan] job needs, built on first
    use. A miss parses (counted in [serve.inline.parsed]) and, when the
    table is full, empties it first. A text that fails to parse is never
    kept, and spec jobs are never kept: a spec can name a file that changes
    on disk. *)

type listen =
  | Unix_socket of string
      (** Listen on a Unix-domain socket at this path. A stale socket file
          left by a killed server is detected (connect probe) and removed;
          a live one is a startup error. The file is unlinked at exit. *)
  | Tcp of int  (** Listen on 127.0.0.1 at this port. *)

val run :
  ?state_dir:string ->
  ?checkpoint_every:int ->
  ?checkpoint_threshold:int ->
  ?on_ready:(unit -> unit) ->
  listen ->
  (unit, string) result
(** Run the daemon until a [shutdown] verb arrives (the queue is drained
    first, new submissions are rejected, then [Ok ()] returns) or a fatal
    signal ends the process. [Error] when [state_dir] cannot be used as a
    directory ({!Tvs_store.Codec.ensure_dir}, checked before the socket is
    bound) or when binding fails. [state_dir] enables
    checkpointing and restart recovery; [checkpoint_every] (default 4) is
    the checkpoint period in stitched cycles, [checkpoint_threshold]
    (default 1000) the minimum collapsed-fault count for a job to
    checkpoint at all. [on_ready] fires once the socket is listening and
    recovery jobs are queued — tests use it to connect without racing.
    While it runs, SIGTERM and SIGINT make the thread that called [run]
    exit the process at once, with status 0 and 130 (on-disk checkpoints
    carry the state); the previous handlers are restored when it returns.
    Ignores SIGPIPE. *)
