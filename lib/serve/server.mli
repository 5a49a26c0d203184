(** The [tvs serve] daemon: a persistent stitching service over the
    {!Protocol} wire format.

    One scheduler thread drains a FIFO of submitted jobs and runs each
    through {!Tvs_harness.Experiments.run_flow} — one at a time, because
    the engine already parallelizes internally across the shared
    {!Tvs_util.Pool}. Each connection gets a reader thread; cheap verbs
    (status/metrics/ping) are answered inline, and a job's lifecycle events
    stream back over the connection that submitted it. The [done] event's
    ["output"] field carries exactly the bytes [tvs stitch] would print for
    the same job ({!Tvs_harness.Experiments.render_summary}).

    When a result cache is installed ({!Tvs_store.Cache.install}),
    identical jobs dedupe through it: the engine runs once, repeats are
    served from disk. A job is flagged ["cached": true], and counts in
    [serve.jobs.deduped], only when that cache holds a readable entry for
    it; without a cache, or with a damaged entry, the job recomputes and
    says so. With a state directory,
    jobs whose collapsed fault list reaches [checkpoint_threshold]
    checkpoint every [checkpoint_every] stitched cycles; at startup the
    server replays any [*.ckpt] files it finds (digest-verified, stale ones
    deleted) before accepting connections, so a SIGTERM mid-job resumes on
    restart and the finished result lands in the cache for the client's
    retry. Inline ["bench"] jobs persist their netlist text into the state
    directory under the content-digest name so their checkpoints survive the
    submitting client. *)

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
