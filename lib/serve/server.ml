(* The stitching daemon behind [tvs serve].

   Shape: the main thread owns the listening socket; every accepted
   connection gets a reader thread that parses frames and answers the cheap
   verbs (status/metrics/ping) in place; submitted jobs go into one FIFO
   drained by a single scheduler thread. Jobs execute one at a time — the
   engine already fans out across the shared domain pool internally, so
   running two engines at once would fight over cores and break nothing
   but throughput — and stream their lifecycle (queued/started/checkpoint/
   done) back over the submitting connection.

   Durability: identical jobs dedupe through the content-addressed result
   cache when one is installed ([tvs serve --cache], the same directory the
   one-shot CLI uses); a job is flagged cached only when that cache
   answered it, and then it runs no engine and writes no checkpoint. With a
   state directory, jobs at or above the fault threshold checkpoint
   periodically; on restart the server scans the
   directory and finishes interrupted work before accepting traffic, so a
   SIGTERM mid-job costs at most [checkpoint_every] cycles of recompute and
   the result still lands in the cache for the client's retry. *)

module Cli = Tvs_harness.Cli
module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Circuit = Tvs_netlist.Circuit
module Checkpoint = Tvs_store.Checkpoint
module Codec = Tvs_store.Codec
module Store_digest = Tvs_store.Digest
module Metrics = Tvs_obs.Metrics
module Json = Tvs_obs.Json
module Clock = Tvs_util.Clock

(* Traffic-shaped, so never part of the stable snapshot. *)
let m_submitted = Metrics.counter ~stable:false "serve.jobs.submitted"
let m_completed = Metrics.counter ~stable:false "serve.jobs.completed"
let m_failed = Metrics.counter ~stable:false "serve.jobs.failed"
let m_deduped = Metrics.counter ~stable:false "serve.jobs.deduped"
let m_recovered = Metrics.counter ~stable:false "serve.jobs.recovered"
let m_connections = Metrics.counter ~stable:false "serve.connections"
let m_protocol_errors = Metrics.counter ~stable:false "serve.protocol.errors"
let m_queue_peak = Metrics.gauge ~stable:false "serve.queue.peak"
let m_inline_parsed = Metrics.counter ~stable:false "serve.inline.parsed"

(* How many parsed inline texts the scheduler keeps. A circuit plus its
   scan form holds 15-16 times its text (s38584's 804 KB text: 11.4 MB), so
   this is far below [Prep.capacity]. *)
let inline_capacity = 16

type listen = Unix_socket of string | Tcp of int

(* One client connection. Events for a job are written by the scheduler
   thread while the reader thread answers status verbs, so writes are
   serialized by [wlock]; a peer that vanished flips [alive] and later
   events are dropped (the job itself keeps running — its result is still
   worth caching). *)
type conn = { oc : out_channel; wlock : Mutex.t; mutable alive : bool }

let send conn j =
  Mutex.protect conn.wlock (fun () ->
      if conn.alive then
        try Protocol.write_frame conn.oc j
        with Sys_error _ -> conn.alive <- false)

type pending = {
  id : int;
  job : Protocol.job;
  reply : conn option;  (* [None]: recovery job replayed from a checkpoint *)
  resume : (Checkpoint.t * string) option;  (* checkpoint and its path *)
}

(* A job's circuit, with the scan form an [equiv --scan] job checks it
   against, built on first use. *)
type netlist = { circuit : Circuit.t; scan_form : (Circuit.t, string) result Lazy.t }

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : pending Queue.t;
  mutable next_id : int;
  mutable running : bool;
  mutable stopping : bool;
  started_at : float;  (* Clock.now at startup, for status uptime *)
  state_dir : string option;
  checkpoint_every : int;
  checkpoint_threshold : int;
  (* Scheduler-thread state: inline texts are parsed once per lifetime,
     keyed by [Cli.inline_file_name] and kept with their text. A stitch miss
     prepares its circuit through [Prep.memo], from this thread only. *)
  inlines : (string, string * netlist) Hashtbl.t;
  wake_r : Unix.file_descr;
      (* self-pipe: a signal and the drained scheduler wake the accept loop *)
  wake_w : Unix.file_descr;
}

(* --- job execution (scheduler thread only) ------------------------------ *)

let netlist circuit =
  {
    circuit;
    scan_form =
      lazy
        (match Tvs_netlist.Scan_insert.insert circuit with
        | r -> Ok r.Tvs_netlist.Scan_insert.circuit
        | exception Circuit.Build_error msg -> Error ("scan insertion failed: " ^ msg));
  }

(* An inline text's file name and netlist. Only inline texts are kept: they
   are content-addressed, where a spec can name a file that changes on disk.
   The stored text must equal the job's, so a digest collision parses
   afresh instead of answering with another circuit; a text that fails to
   parse is not kept. *)
let inline t ?format text =
  let file_name = Cli.inline_file_name ?format text in
  match Hashtbl.find_opt t.inlines file_name with
  | Some (seen, n) when String.equal seen text -> Ok (file_name, n)
  | _ ->
      Metrics.incr m_inline_parsed;
      Result.map
        (fun circuit ->
          if Hashtbl.length t.inlines >= inline_capacity then Hashtbl.reset t.inlines;
          let n = netlist circuit in
          Hashtbl.replace t.inlines file_name (text, n);
          (file_name, n))
        (Cli.parse_inline ~file_name text)

(* Resolve the job's netlist plus the spec string a checkpoint would record
   (what [resolve]-on-restart feeds back to [Cli.load_circuit]). Inline
   netlists are persisted into the state directory under their
   content-digest name, so a checkpoint of an inline job survives the
   client: the restarted server reloads the text from disk. *)
let resolve t (job : Protocol.job) =
  match job.source with
  | Protocol.Spec s ->
      Result.map
        (fun c -> (netlist c, s))
        (Cli.load_circuit ~scale:job.scale ?format:job.format s)
  | Protocol.Bench text ->
      Result.map
        (fun (file_name, n) ->
          match t.state_dir with
          | None -> (n, "<inline>")
          | Some dir ->
              (* the persisted copy's extension pins the resolved format,
                 so a restarted server reparses it identically even though
                 the checkpoint has no format field *)
              let path = Filename.concat dir file_name in
              if not (Sys.file_exists path) then Codec.write_file_atomic path text;
              (n, path))
        (inline t ?format:job.format text)

let json_of_summary (s : Experiments.run_summary) =
  Json.Obj
    [
      ("atv", Json.Int s.Experiments.atv);
      ("tv", Json.Int s.Experiments.tv);
      ("ex", Json.Int s.Experiments.ex);
      ("peak_hidden", Json.Int s.Experiments.peak_hidden);
      ("m", Json.Float s.Experiments.m);
      ("t", Json.Float s.Experiments.t);
      ("coverage", Json.Float s.Experiments.coverage);
    ]

(* A test-point-insertion study. No checkpointing — a study is a sequence
   of short flow runs, each memoized per modified-circuit digest, so a
   restart recomputes at most one evaluation; the whole study dedupes
   through its own cache kind. *)
let run_tpi_job (job : Protocol.job) circuit (params : Protocol.tpi_params) =
  let module Tpi = Tvs_tpi.Tpi in
  let options =
    {
      Tpi.points = params.Protocol.points;
      budget = params.Protocol.budget;
      shift = job.Protocol.shift;
      po_taps = params.Protocol.po_taps;
      controls = params.Protocol.controls;
    }
  in
  match Tpi.run ~options circuit with
  | exception Circuit.Build_error msg -> Error msg
  | exception Failure msg -> Error msg
  | r ->
      Ok
        ( r.Tpi.cached,
          [
            ("cached", Json.Bool r.Tpi.cached);
            ("tpi", Tpi.to_json r);
            ("output", Json.Str (Tpi.to_ascii r));
          ] )

(* An equivalence check. No checkpointing — a check is seconds even on the
   biggest bundled profile, and the whole verdict dedupes through the CEQV
   cache kind, so a restarted client's retry is a cache hit. The result's
   own [cached] flag says whether the check was replayed. *)
let run_equiv_job t (job : Protocol.job) left (params : Protocol.equiv_params) =
  let module Cec = Tvs_cec.Cec in
  let right =
    match params.Protocol.target with
    | Protocol.Scan_form -> Lazy.force left.scan_form
    | Protocol.Netlist (Protocol.Spec s) ->
        Cli.load_circuit ~scale:job.Protocol.scale ?format:job.Protocol.format s
    | Protocol.Netlist (Protocol.Bench text) ->
        Result.map (fun (_, n) -> n.circuit) (inline t ?format:job.Protocol.format text)
  in
  match right with
  | Error msg -> Error msg
  | Ok right -> (
      let ties =
        List.map (fun (name, value) -> { Cec.name; value }) params.Protocol.ties
      in
      let options =
        { Cec.budget = params.Protocol.budget; vectors = params.Protocol.vectors; ties }
      in
      match Cec.check ~options left.circuit right with
      | exception Cec.Mismatch msg -> Error ("interface mismatch: " ^ msg)
      | exception Circuit.Build_error msg -> Error msg
      | exception Failure msg -> Error msg
      | r ->
          Ok
            ( r.Cec.cached,
              [
                ("cached", Json.Bool r.Cec.cached);
                ("verdict", Json.Str (Cec.verdict_name r.Cec.verdict));
                ("equiv", Cec.to_json r);
                ("output", Json.Str (Cec.to_ascii r));
              ] ))

(* Run one job to completion. [emit] streams protocol events (dropped for
   recovery jobs). Returns the done-event fields or an error message. *)
let run_job t (p : pending) emit =
  match resolve t p.job with
  | Error msg -> Error msg
  | Ok ({ circuit; _ }, spec) when p.job.Protocol.kind = Protocol.Stitch -> (
      let job = p.job in
      (* A resumed job checkpoints into its own file. A fresh one does so
         only when the miss that runs it prepares at least the threshold's
         collapsed faults, into the state directory under a digest of the
         job; a job the cache answers prepares nothing and writes nothing.
         The file goes once the job is done. *)
      let ckpt_path = ref (Option.map snd p.resume) in
      let save (prep : Prep.t) =
        (match (!ckpt_path, t.state_dir) with
        | None, Some dir when Array.length prep.Prep.faults >= t.checkpoint_threshold ->
            let digest = Store_digest.of_string (Json.to_string (Protocol.json_of_job job)) in
            ckpt_path := Some (Filename.concat dir ("job-" ^ Store_digest.to_hex digest ^ ".ckpt"))
        | _ -> ());
        Option.map
          (fun path ->
            ( t.checkpoint_every,
              fun ck ->
                Checkpoint.save path ck;
                emit "checkpoint" [] ))
          !ckpt_path
      in
      match
        Experiments.stitch ~spec ~scale:job.scale ~scheme:job.scheme ~selection:job.selection
          ~shift:job.shift ~label:job.label ?resume:(Option.map fst p.resume) ~save circuit
      with
      | exception Failure msg -> Error msg
      | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)
      | Error _ as refused -> refused
      | Ok (summary, cached) ->
          Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) !ckpt_path;
          let output =
            Experiments.render_summary ~circuit:(Circuit.name circuit) ~scheme:job.scheme
              ~selection:job.selection summary
          in
          Ok
            ( cached,
              [
                ("cached", Json.Bool cached);
                ("summary", json_of_summary summary);
                ("output", Json.Str output);
              ] ))
  | Ok (n, _) -> (
      match p.job.Protocol.kind with
      | Protocol.Tpi params -> run_tpi_job p.job n.circuit params
      | Protocol.Equiv params -> run_equiv_job t p.job n params
      | Protocol.Stitch -> assert false (* handled by the guarded arm above *))

let execute t (p : pending) =
  let emit name fields =
    match p.reply with
    | Some conn -> send conn (Protocol.event name (("id", Json.Int p.id) :: fields))
    | None -> ()
  in
  emit "started" [];
  (* One pathological job (degenerate circuit, engine invariant violation)
     must never take the scheduler thread down with it — every client after
     it would hang forever. *)
  match (try run_job t p emit with e -> Error ("job raised: " ^ Printexc.to_string e)) with
  | Ok (cached, fields) ->
      Metrics.incr m_completed;
      if cached then Metrics.incr m_deduped;
      if p.resume <> None then Metrics.incr m_recovered;
      emit "done" fields
  | Error msg ->
      Metrics.incr m_failed;
      (* A recovery job that cannot be replayed (deleted .bench, changed
         build) would fail identically on every restart: drop its file. *)
      (match p.resume with
      | Some (_, path) ->
          Printf.eprintf "tvs serve: abandoning checkpoint %s: %s\n%!" path msg;
          (try Sys.remove path with Sys_error _ -> ())
      | None -> ());
      emit "error" [ ("message", Json.Str msg) ]

let rec scheduler_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stopping, drained *)
  else begin
    let p = Queue.pop t.queue in
    t.running <- true;
    Mutex.unlock t.mutex;
    execute t p;
    Mutex.lock t.mutex;
    t.running <- false;
    Mutex.unlock t.mutex;
    scheduler_loop t
  end

(* --- connection handling (one reader thread per client) ----------------- *)

let enqueue t (p : pending) =
  Mutex.lock t.mutex;
  Queue.push p t.queue;
  Metrics.observe_max m_queue_peak (Queue.length t.queue);
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let status_json t =
  Mutex.lock t.mutex;
  let depth = Queue.length t.queue and running = t.running and stopping = t.stopping in
  Mutex.unlock t.mutex;
  Protocol.event "status"
    [
      ("queue", Json.Int depth);
      ("running", Json.Bool running);
      ("draining", Json.Bool stopping);
      ("submitted", Json.Int (Metrics.counter_value m_submitted));
      ("completed", Json.Int (Metrics.counter_value m_completed));
      ("failed", Json.Int (Metrics.counter_value m_failed));
      ("deduped", Json.Int (Metrics.counter_value m_deduped));
      ("recovered", Json.Int (Metrics.counter_value m_recovered));
      ("uptime_s", Json.Float (Clock.now () -. t.started_at));
    ]

let metrics_json () =
  let value_fields = function
    | Metrics.Counter_v v -> [ ("kind", Json.Str "counter"); ("value", Json.Int v) ]
    | Metrics.Gauge_v v -> [ ("kind", Json.Str "gauge"); ("value", Json.Int v) ]
    | Metrics.Histogram_v { count; sum; buckets } ->
        [
          ("kind", Json.Str "histogram");
          ("count", Json.Int count);
          ("sum", Json.Int sum);
          ("buckets", Json.Arr (Array.to_list (Array.map (fun b -> Json.Int b) buckets)));
        ]
  in
  Protocol.event "metrics"
    [
      ( "metrics",
        Json.Arr
          (List.map
             (fun (name, v) -> Json.Obj (("name", Json.Str name) :: value_fields v))
             (Metrics.snapshot ~all:true ())) );
    ]

let handle_request t conn = function
  | Protocol.Status -> send conn (status_json t)
  | Protocol.Metrics -> send conn (metrics_json ())
  | Protocol.Ping -> send conn (Protocol.event "pong" [])
  | Protocol.Shutdown ->
      (* No wake of the accept loop here: [run] may have returned and closed
         the pipe by the time this thread writes. The scheduler wakes it
         once the queue has drained, before [run] closes anything. *)
      send conn (Protocol.event "shutting-down" []);
      Mutex.lock t.mutex;
      t.stopping <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex
  | Protocol.Submit job ->
      let rejected =
        Mutex.protect t.mutex (fun () ->
            if t.stopping then true
            else begin
              t.next_id <- t.next_id + 1;
              false
            end)
      in
      if rejected then
        send conn
          (Protocol.event "error" [ ("message", Json.Str "server is draining; job rejected") ])
      else begin
        let id = t.next_id in
        Metrics.incr m_submitted;
        (* The queued event is written before the job becomes visible to the
           scheduler, so each job's events arrive in lifecycle order. *)
        send conn (Protocol.event "queued" [ ("id", Json.Int id) ]);
        enqueue t { id; job; reply = Some conn; resume = None }
      end

let handle_conn t fd =
  Metrics.incr m_connections;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let conn = { oc; wlock = Mutex.create (); alive = true } in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some (Error msg) ->
        (* Framing is byte-positional: past one bad frame the stream cannot
           be trusted, so report and drop the connection. *)
        Metrics.incr m_protocol_errors;
        send conn (Protocol.event "error" [ ("message", Json.Str msg) ])
    | Some (Ok j) ->
        (match Protocol.request_of_json j with
        | Error msg ->
            Metrics.incr m_protocol_errors;
            send conn (Protocol.event "error" [ ("message", Json.Str msg) ])
        | Ok req -> handle_request t conn req);
        loop ()
  in
  (try loop () with Sys_error _ | End_of_file -> ());
  Mutex.protect conn.wlock (fun () -> conn.alive <- false);
  close_out_noerr oc

(* --- recovery ----------------------------------------------------------- *)

let scan_recovery t dir =
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then begin
        let path = Filename.concat dir f in
        match Checkpoint.load path with
        | Error e ->
            Printf.eprintf "tvs serve: dropping unreadable checkpoint %s: %s\n%!" path
              (Codec.error_to_string e);
            (try Sys.remove path with Sys_error _ -> ())
        | Ok ck ->
            (* The checkpointed spec is a resolved server-side path whose
               extension pins the format. A persisted inline text resumes as
               the inline job that wrote it, parsed under its file name, so
               the circuit keeps its inline-<hex> name and digest (a Verilog
               file would be named after its module). *)
            let spec = ck.Checkpoint.spec in
            let source, format =
              if not (String.starts_with ~prefix:"inline-" (Filename.basename spec)) then
                (Protocol.Spec spec, None)
              else
                match In_channel.with_open_bin spec In_channel.input_all with
                | text -> (Protocol.Bench text, Some (Tvs_verilog.Loader.detect ~path:spec text))
                | exception Sys_error _ -> (Protocol.Spec spec, None)
            in
            let job =
              {
                Protocol.source;
                kind = Protocol.Stitch;
                format;
                scale = ck.Checkpoint.scale;
                scheme = ck.Checkpoint.scheme;
                selection = ck.Checkpoint.selection;
                shift = ck.Checkpoint.shift;
                label = ck.Checkpoint.label;
              }
            in
            Mutex.protect t.mutex (fun () -> t.next_id <- t.next_id + 1);
            enqueue t { id = t.next_id; job; reply = None; resume = Some (ck, path) }
      end)
    files

(* --- listening sockets -------------------------------------------------- *)

let bind_listen = function
  | Tcp port ->
      if port < 1 || port > 65535 then Error (Printf.sprintf "invalid port %d" port)
      else begin
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | exception Unix.Unix_error (err, _, _) ->
            Unix.close fd;
            Error (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" port (Unix.error_message err))
        | () ->
            Unix.listen fd 64;
            Ok (fd, fun () -> (try Unix.close fd with Unix.Unix_error _ -> ()))
      end
  | Unix_socket path ->
      if String.length path = 0 then Error "--socket needs a non-empty path"
      else begin
        (* A leftover socket file from a killed server must not block
           restart, but clobbering a live server would be worse: probe with
           a connect first. *)
        (if Sys.file_exists path then begin
           let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           let live =
             match Unix.connect probe (Unix.ADDR_UNIX path) with
             | () -> true
             | exception Unix.Unix_error (_, _, _) -> false
           in
           Unix.close probe;
           if live then failwith (Printf.sprintf "socket %S: a server is already listening" path)
           else try Unix.unlink path with Unix.Unix_error (_, _, _) -> ()
         end);
        match
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (match Unix.bind fd (Unix.ADDR_UNIX path) with
          | exception e ->
              Unix.close fd;
              raise e
          | () -> ());
          Unix.listen fd 64;
          fd
        with
        | exception Failure msg -> Error msg
        | exception Unix.Unix_error (err, _, _) ->
            Error (Printf.sprintf "cannot bind %S: %s" path (Unix.error_message err))
        | fd ->
            let cleaned = Atomic.make false in
            Ok
              ( fd,
                fun () ->
                  if not (Atomic.exchange cleaned true) then begin
                    (try Unix.close fd with Unix.Unix_error _ -> ());
                    try Unix.unlink path with Unix.Unix_error _ -> ()
                  end )
      end

(* --- entry point -------------------------------------------------------- *)

let run ?state_dir ?(checkpoint_every = 4) ?(checkpoint_threshold = 1000) ?on_ready listen =
  if checkpoint_every < 1 then invalid_arg "Server.run: checkpoint_every must be >= 1";
  if checkpoint_threshold < 0 then invalid_arg "Server.run: checkpoint_threshold must be >= 0";
  (* A client that disconnects mid-stream must not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* SIGTERM/SIGINT exit immediately: periodic checkpoints are already on
     disk (atomic temp+rename, so a kill mid-save is harmless) and the
     at_exit below removes the socket file. Restarting resumes the work.
     A handler can run on any thread, and one that exits there would close
     the socket under the accept loop's select; so it only records the exit
     code and wakes the accept loop, whose thread exits. *)
  let wake_r, wake_w = Unix.pipe () in
  let signalled = Atomic.make None in
  let on_signal code =
    Sys.Signal_handle
      (fun _ ->
        Atomic.set signalled (Some code);
        try ignore (Unix.write wake_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ())
  in
  let old_term = Sys.signal Sys.sigterm (on_signal 0) in
  let old_int = Sys.signal Sys.sigint (on_signal 130) in
  Fun.protect ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      (try Unix.close wake_r with Unix.Unix_error _ -> ());
      try Unix.close wake_w with Unix.Unix_error _ -> ())
  @@ fun () ->
  Tvs_obs.Instrument.install_pool_probe ();
  (* An unusable state directory is a startup error, found before the
     socket exists: every checkpoint and inline netlist would fail later. *)
  match
    Result.bind
      (Option.fold ~none:(Ok ()) ~some:(Codec.ensure_dir ~flag:"--state") state_dir)
      (fun () -> bind_listen listen)
  with
  | Error _ as e -> e
  | Ok (fd, cleanup) ->
      at_exit cleanup;
      let t =
        {
          mutex = Mutex.create ();
          nonempty = Condition.create ();
          queue = Queue.create ();
          next_id = 0;
          running = false;
          stopping = false;
          started_at = Clock.now ();
          state_dir;
          checkpoint_every;
          checkpoint_threshold;
          inlines = Hashtbl.create inline_capacity;
          wake_r;
          wake_w;
        }
      in
      Option.iter (scan_recovery t) state_dir;
      let drained = Atomic.make false in
      let scheduler =
        Thread.create
          (fun t ->
            Fun.protect ~finally:(fun () ->
                Atomic.set drained true;
                ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1))
            @@ fun () -> scheduler_loop t)
          t
      in
      Option.iter (fun f -> f ()) on_ready;
      (* Accept connections until the scheduler has drained the queue after
         the shutdown verb (a submission in the meantime is rejected); the
         drained scheduler wakes the loop through the pipe, and a signal
         wakes it to exit at once. *)
      let buf = Bytes.create 64 in
      let rec accept_loop () =
        let stopping = Mutex.protect t.mutex (fun () -> t.stopping) in
        if not (stopping && Atomic.get drained) then begin
          match Unix.select [ fd; t.wake_r ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | readable, _, _ ->
              if List.mem t.wake_r readable then begin
                ignore (Unix.read t.wake_r buf 0 (Bytes.length buf));
                Option.iter exit (Atomic.get signalled)
              end
              else begin
                match Unix.accept fd with
                | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
                | cfd, _ -> ignore (Thread.create (handle_conn t) cfd)
              end;
              accept_loop ()
        end
      in
      accept_loop ();
      Thread.join scheduler;
      cleanup ();
      Ok ()
