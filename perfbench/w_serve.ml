(* Workload [serve-mixed]: a [tvs serve] daemon with an empty --cache and
   --state, driven by two client connections in a closed loop with a seeded
   stream of jobs drawn from a small pool: stitch jobs on s444 and s1423
   under three labels each, and [equiv --scan] jobs on s9234@0.5. The
   first sighting of a job runs the engine (or the equivalence checker) and
   writes the cache; every repeat is a cache read. Three times in a run the
   daemon is shut down gracefully and restarted on the same directories, as
   a deploy would. Jobs carry their netlists inline, so the daemon only
   ever sees the generated circuits.

   The seed picks each connection's job order. The labels are fixed: they
   seed the engine, and a label can change a miss's work several-fold. *)

module Protocol = Tvs_serve.Protocol
module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Cli = Tvs_harness.Cli
module Circuit = Tvs_netlist.Circuit
module Json = Tvs_obs.Json
module Clock = Tvs_util.Clock
module Rng = Tvs_util.Rng

let connections = 2

(* Daemon lifetimes per run: the run restarts the daemon [lifetimes - 1]
   times (see [serve] in [run_here]). *)
let lifetimes = 4
let socket = "d.sock"

type kind = Stitch of string | Equiv

(* [frame] is the job's request, encoded once: the client shares the CPU
   with the daemon and should not spend it re-encoding the inline netlist
   on every submit. *)
type job = { name : string; kind : kind; text : string; weight : int; frame : string }

let request kind text =
  match kind with
  | Stitch label -> { (Protocol.default_job (Protocol.Bench text)) with Protocol.label }
  | Equiv ->
      Protocol.default_job ~kind:(Protocol.Equiv Protocol.default_equiv_params) (Protocol.Bench text)

let job ~name ~weight kind text =
  { name; kind; text; weight; frame = Json.to_string (Protocol.json_of_job (request kind text)) }

let pool () =
  let text ?scale name = Tvs_netlist.Bench_format.to_string (Common.circuit ?scale name) in
  let stitch ~labels name =
    let t = text name in
    List.init labels (fun k ->
        let label = Common.label ~seed:0 k in
        let name = Printf.sprintf "stitch %s %s" name label in
        job ~name ~weight:1 (Stitch label) t)
  in
  let equiv ~weight name =
    let text = text ~scale:0.5 name in
    job ~name:(Printf.sprintf "equiv --scan %s@0.5" name) ~weight Equiv text
  in
  Array.of_list (stitch ~labels:3 "s444" @ stitch ~labels:3 "s1423" @ [ equiv ~weight:2 "s9234" ])

(* A connection's job stream: seeded shuffles of a deck holding each pool
   job [weight] times, so every stretch of the stream has the pool's mix. *)
let stream rng pool =
  let deck = Array.concat (Array.to_list (Array.mapi (fun i j -> Array.make j.weight i) pool)) in
  let next = ref (Array.length deck) in
  fun () ->
    if !next = Array.length deck then begin
      Rng.shuffle rng deck;
      next := 0
    end;
    incr next;
    deck.(!next - 1)

(* [Protocol.write_frame] of an encoded request. *)
let write_request oc job =
  output_string oc (string_of_int (String.length job.frame));
  output_char oc '\n';
  output_string oc job.frame;
  output_char oc '\n';
  flush oc

(* --- the daemon --------------------------------------------------------- *)

let str k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close (_, oc) = close_out_noerr oc

(* One request on a fresh connection, answered by one event. *)
let ask verb =
  match connect () with
  | None -> None
  | Some ((ic, oc) as c) ->
      let reply =
        match Protocol.write_frame oc (Protocol.json_of_request verb) with
        | () -> ( match Protocol.read_frame ic with Some (Ok j) -> Some j | _ -> None)
        | exception Sys_error _ -> None
      in
      close c;
      reply

type daemon = { pid : int; mutable metrics : (string * float) list }

(* Daemons started and not yet reaped, killed if the run fails midway. *)
let live = ref []

let reap pid =
  let _, status = Unix.waitpid [] pid in
  live := List.filter (( <> ) pid) !live;
  status

let spawn ~tvs ~trace_file =
  let args =
    [ tvs; "serve"; "--socket"; socket; "--cache"; "cache"; "--state"; "state" ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let env = Array.append [| "TVS_JOBS=1" |] (Unix.environment ()) in
  let log = Unix.openfile "daemon.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process_env tvs (Array.of_list args) env Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  let deadline = Clock.now () +. 60.0 in
  let rec wait_ready () =
    match ask Protocol.Ping with
    | Some _ -> ()
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "tvs serve exited during start-up");
        if Clock.now () > deadline then failwith "tvs serve did not come up within 60 s";
        Unix.sleepf 0.002;
        wait_ready ()
  in
  wait_ready ();
  { pid; metrics = [] }

let registry_of_event j =
  match Json.member "metrics" j with
  | Some (Json.Arr ms) ->
      List.filter_map
        (fun m ->
          match (str "name" m, Json.member "value" m) with
          | Some name, Some (Json.Int v) -> Some (name, float_of_int v)
          | _ -> None)
        ms
  | _ -> []

(* Read the daemon's counters and peak memory, then drain and stop it. *)
let shutdown d =
  d.metrics <- (match ask Protocol.Metrics with Some j -> registry_of_event j | None -> []);
  let peak = Common.peak_rss_mb d.pid in
  ignore (ask Protocol.Shutdown);
  let status = reap d.pid in
  if status <> Unix.WEXITED 0 then failwith "tvs serve did not exit cleanly";
  peak

(* --- the clients -------------------------------------------------------- *)

type record = {
  job : int;
  latency : float;  (** submit to done *)
  queue_wait : float;  (** queued to started *)
  service : float;  (** started to done *)
  cached : bool;
  generation : int;  (** the daemon lifetime that answered *)
  reply : (Json.t, string) result;
}

(* Submit one job on a connection and follow its events to done/error. *)
let submit ~generation (ic, oc) idx job =
  let t0 = Clock.now () in
  let queued = ref t0 and started = ref t0 in
  let finish reply cached =
    let t = Clock.now () in
    {
      job = idx;
      latency = t -. t0;
      queue_wait = !started -. !queued;
      service = t -. !started;
      cached;
      generation;
      reply;
    }
  in
  match write_request oc job with
  | exception Sys_error m -> finish (Error m) false
  | () ->
      let rec follow () =
        match Protocol.read_frame ic with
        | None -> finish (Error "server closed the connection") false
        | Some (Error m) -> finish (Error m) false
        | Some (Ok j) -> (
            match str "event" j with
            | Some "queued" ->
                queued := Clock.now ();
                follow ()
            | Some "started" ->
                started := Clock.now ();
                follow ()
            | Some "done" -> finish (Ok j) (Json.member "cached" j = Some (Json.Bool true))
            | Some "error" -> finish (Error (Option.value ~default:"error" (str "message" j))) false
            | _ -> follow ())
      in
      (try follow () with Sys_error m | Failure m -> finish (Error m) false)

type phase = Running | Paused | Stopped

type ctl = {
  m : Mutex.t;
  cv : Condition.t;
  mutable phase : phase;
  mutable generation : int;  (** bumped by each daemon restart *)
  mutable idle : int;
  mutable records : record list;
}

let worker ctl ~seed pool w =
  let next_job = stream (Rng.of_string (Printf.sprintf "serve-mixed:%d:%d" seed w)) pool in
  let conn = ref None in
  let rec loop () =
    Mutex.lock ctl.m;
    if ctl.phase = Paused then begin
      ctl.idle <- ctl.idle + 1;
      Condition.broadcast ctl.cv;
      while ctl.phase = Paused do
        Condition.wait ctl.cv ctl.m
      done;
      ctl.idle <- ctl.idle - 1
    end;
    let phase = ctl.phase and generation = ctl.generation in
    Mutex.unlock ctl.m;
    if phase <> Stopped then begin
      (match !conn with
      | Some (g, c) when g <> generation ->
          close c;
          conn := None
      | _ -> ());
      if Option.is_none !conn then Option.iter (fun c -> conn := Some (generation, c)) (connect ());
      let idx = next_job () in
      let r =
        match !conn with
        | Some (_, c) -> submit ~generation c idx pool.(idx)
        | None ->
            { job = idx; latency = 0.0; queue_wait = 0.0; service = 0.0; cached = false;
              generation; reply = Error "cannot connect" }
      in
      if Result.is_error r.reply then begin
        Option.iter (fun (_, c) -> close c) !conn;
        conn := None
      end;
      Mutex.protect ctl.m (fun () -> ctl.records <- r :: ctl.records);
      loop ()
    end
  in
  loop ();
  Option.iter (fun (_, c) -> close c) !conn

(* --- the workload ------------------------------------------------------- *)

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The bytes [tvs stitch] would print for a stitch job, computed in-process. *)
let references pool =
  let preps = Hashtbl.create 4 in
  Array.map
    (fun job ->
      match job.kind with
      | Equiv -> None
      | Stitch label ->
          let c = Result.get_ok (Cli.inline_circuit job.text) in
          let prep =
            match Hashtbl.find_opt preps job.text with
            | Some p -> p
            | None ->
                let p = Prep.of_circuit c in
                Hashtbl.add preps job.text p;
                p
          in
          Some (Common.render c (Experiments.run_flow ~label prep)))
    pool

let summary_coverage j =
  match Option.bind (Json.member "summary" j) (Json.member "coverage") with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let run_here ~seed ~seconds ~trace ~tvs =
  let speed = Common.Speed.start () in
  (* Set-up: build the job pool and start a daemon up to a ready socket,
     five times; the last daemon serves the run. Only it is traced. *)
  let n = 5 in
  let setups =
    List.init n (fun k ->
        let trace_file = if trace && k = n - 1 then Some "trace-0.json" else None in
        let (pool, d), dt = Clock.time_it (fun () -> (pool (), spawn ~tvs ~trace_file)) in
        if k < n - 1 then ignore (shutdown d);
        (dt, pool, d))
  in
  let setup_s = Common.median (List.map (fun (dt, _, _) -> dt) setups) in
  let _, pool, first = List.nth setups (n - 1) in
  let ctl =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      phase = Running;
      generation = 0;
      idle = 0;
      records = [];
    }
  in
  let set_phase p =
    Mutex.protect ctl.m (fun () ->
        ctl.phase <- p;
        if p = Running then ctl.generation <- ctl.generation + 1;
        Condition.broadcast ctl.cv)
  in
  let t0 = Clock.now () in
  let threads = List.init connections (fun w -> Thread.create (worker ctl ~seed pool) w) in
  (* Every pool job answered at least once: the cold misses are over. *)
  let warm () =
    Mutex.protect ctl.m (fun () ->
        Array.for_all
          (fun i -> List.exists (fun r -> r.job = i && Result.is_ok r.reply) ctl.records)
          (Array.init (Array.length pool) Fun.id))
  in
  (* The first daemon serves a [lifetimes]-th of the run, and longer if the
     cold misses are not over by then: a restart amid them would make the
     rest pay baseline ATPG twice, so the run's work would depend on the job
     order. The later daemons split the rest of the run evenly. After each
     lifetime but the last comes a deploy: let in-flight jobs finish, drain,
     restart on the same directories. Returns each lifetime's (daemon, peak
     memory, window) and the restart times. *)
  let rec serve k daemon lives restarts =
    let start = Clock.now () in
    let until =
      if k = 0 then seconds /. float_of_int lifetimes
      else
        let left = seconds -. (start -. t0) in
        (start -. t0) +. (left /. float_of_int (lifetimes - k))
    in
    Unix.sleepf (Float.max 0.0 (until -. (Clock.now () -. t0)));
    if k = 0 then
      while (not (warm ())) && Clock.now () -. t0 < seconds do
        Unix.sleepf 0.01
      done;
    if k = lifetimes - 1 then begin
      set_phase Stopped;
      List.iter Thread.join threads;
      let window = Clock.now () -. start in
      (List.rev ((daemon, shutdown daemon, window) :: lives), restarts)
    end
    else begin
      set_phase Paused;
      Mutex.protect ctl.m (fun () ->
          while ctl.idle < connections do
            Condition.wait ctl.cv ctl.m
          done);
      let restart_t0 = Clock.now () in
      let peak = shutdown daemon in
      let trace_file = if trace then Some (Printf.sprintf "trace-%d.json" (k + 1)) else None in
      let next = spawn ~tvs ~trace_file in
      let restart_s = Clock.now () -. restart_t0 in
      set_phase Running;
      serve (k + 1) next ((daemon, peak, restart_t0 -. start) :: lives) (restart_s :: restarts)
    end
  in
  let lives, restarts = serve 0 first [] [] in
  let window = Clock.now () -. t0 in
  let daemons = List.map (fun (d, _, _) -> d) lives in
  let restart_s = Common.median restarts in
  let scale, samples = Common.Speed.stop speed in
  let records = List.rev ctl.records in
  (* Correctness: every response for one job is byte-identical, and stitch
     responses equal the in-process rendering. *)
  let ops = { (Common.fresh_ops ()) with Common.attempted = List.length records } in
  let outputs = Array.make (Array.length pool) None in
  let reference = references pool in
  List.iter
    (fun r ->
      match r.reply with
      | Error m -> Common.fail ops "%s: %s" pool.(r.job).name m
      | Ok j -> (
          let out = Option.value ~default:"" (str "output" j) in
          let mismatch =
            (match outputs.(r.job) with
            | None ->
                outputs.(r.job) <- Some out;
                false
            | Some o -> o <> out)
            || match reference.(r.job) with Some ref_out -> ref_out <> out | None -> false
          in
          if mismatch then
            Common.fail ops "%s: response differs from the first response or the in-process run"
              pool.(r.job).name))
    records;
  let ok = List.filter (fun r -> Result.is_ok r.reply) records in
  let hits, misses = List.partition (fun r -> r.cached) ok in
  let ms xs = List.map (fun x -> 1000.0 *. x) xs in
  let coverage =
    List.fold_left
      (fun acc r ->
        match r.reply with
        | Ok j -> ( match summary_coverage j with Some c -> Float.min acc c | None -> acc)
        | Error _ -> acc)
      1.0 ok
  in
  Printf.printf "serve-mixed: %d jobs (%d hits, %d misses) over %.1f s, pool of %d jobs\n"
    (List.length records) (List.length hits) (List.length misses) window (Array.length pool);
  List.iteri
    (fun g (_, _, w) ->
      let n = List.length (List.filter (fun (r : record) -> r.generation = g) ok) in
      Printf.printf "serve-mixed: daemon %d answered %d jobs in %.1f s (%.1f/s)\n" (g + 1) n w
        (Common.ratio (float_of_int n) w))
    lives;
  Printf.printf "serve-mixed: times scaled by %.4f (%d speed samples)\n" scale samples;
  Array.iteri
    (fun i job ->
      let mine = List.filter (fun r -> r.job = i) ok in
      let lat l = Common.median (ms (List.map (fun r -> r.latency) l)) in
      Printf.printf "  %-32s %4d jobs, hit p50 %9.2f ms, miss p50 %9.2f ms\n" job.name
        (List.length mine)
        (lat (List.filter (fun r -> r.cached) mine))
        (lat (List.filter (fun r -> not r.cached) mine)))
    pool;
  let busy l = List.fold_left (fun acc r -> acc +. r.service) 0.0 l in
  Printf.printf "serve-mixed: daemon busy %.2f s on misses, %.2f s on hits; restart took %.0f ms\n"
    (busy misses) (busy hits) (1000.0 *. restart_s);
  let latencies = ms (List.map (fun r -> r.latency) ok) in
  let p95 = Common.percentile 95.0 latencies in
  let above = List.length (List.filter (fun l -> l > p95) latencies) in
  Printf.printf "serve-mixed: %d jobs above the p95 latency of %.1f ms%s\n" above p95
    (if above < 10 then " (fewer than 10: the percentile is not resolved)" else "");
  let end_to_end =
    Common.
      [
        metric "setup_s" "s" setup_s;
        metric "peak_rss_mb" "MB" (List.fold_left (fun acc (_, p, _) -> Float.max acc p) 0.0 lives);
        metric "success_rate" "ratio" (success_rate ops);
        metric "work_s" "s" (median (List.map (fun r -> r.latency) hits));
        metric "ops_per_s" "1/s" (ratio (float_of_int (List.length ok)) window);
        metric "p95_ms" "ms" p95;
        metric "coverage" "ratio" coverage;
      ]
  in
  let per_layer =
    if not trace then []
    else begin
      let daemon name =
        List.fold_left
          (fun acc d -> acc +. Option.value ~default:0.0 (List.assoc_opt name d.metrics))
          0.0 daemons
      in
      let self, _ =
        Common.self_times
          (List.concat
             (List.mapi
                (fun k file ->
                  (* each daemon's trace has its own clock origin: keep the
                     lifetimes apart *)
                  List.map
                    (fun (s : Common.span) -> { s with Common.tid = s.Common.tid + (k lsl 20) })
                    (Common.spans_of_trace_file file))
                (List.init lifetimes (Printf.sprintf "trace-%d.json"))))
      in
      let span name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
      let miss_ms is_kind =
        Common.mean
          (ms
             (List.filter_map
                (fun r -> if is_kind pool.(r.job).kind then Some r.service else None)
                misses))
      in
      let is_stitch = function Stitch _ -> true | Equiv -> false in
      Common.
        [
          metric "prep.self_s" "s" (span "prep");
          metric "engine.atpg_s" "s" (span "engine.atpg");
          metric "engine.atpg_attempts" "count" (daemon "engine.atpg_attempts");
          metric "faultsim.detected_matrix_s" "s" (span "faultsim.detected_matrix");
          metric "serve.queue_wait_ms.p50" "ms" (median (ms (List.map (fun r -> r.queue_wait) ok)));
          metric "serve.queue_wait_ms.p95" "ms"
            (percentile 95.0 (ms (List.map (fun r -> r.queue_wait) ok)));
          metric "serve.hit_p50_ms" "ms" (median (ms (List.map (fun r -> r.latency) hits)));
          metric "serve.hit_service_ms.p50" "ms" (median (ms (List.map (fun r -> r.service) hits)));
          metric "serve.miss_service_ms.stitch" "ms" (miss_ms is_stitch);
          metric "serve.miss_service_ms.equiv" "ms" (miss_ms (fun k -> not (is_stitch k)));
          metric "serve.restart_ms" "ms" (1000.0 *. restart_s);
          metric "serve.jobs.deduped" "count" (daemon "serve.jobs.deduped");
          metric "store.cache.hits" "count" (daemon "store.cache.hits");
          metric "store.cache.misses" "count" (daemon "store.cache.misses");
          metric "store.cache.stores" "count" (daemon "store.cache.stores");
          metric "cec.sat.calls" "count" (daemon "cec.sat.calls");
          metric "cec.sat.decisions" "count" (daemon "cec.sat.decisions");
          metric "cec.checks" "count" (daemon "cec.checks");
          metric "bench.speed_scale" "ratio" scale;
        ]
    end
  in
  { Common.ops; scale; end_to_end; per_layer }

(* Daemon files live in a private directory under the checkout, entered so
   the socket path stays short; it is removed afterwards. *)
let run ~seed ~seconds ~trace ~tvs =
  (* a daemon that dies mid-job must show as a failed job, not kill the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let home = Sys.getcwd () in
  let dir = Filename.concat home (Printf.sprintf ".perfbench/serve-%d" (Unix.getpid ())) in
  Common.mkdir_p dir;
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (reap pid) with Unix.Unix_error _ -> ())
        !live;
      Sys.chdir home;
      remove_tree dir;
      try Unix.rmdir (Filename.dirname dir) with Unix.Unix_error _ -> ())
    (fun () ->
      try run_here ~seed ~seconds ~trace ~tvs
      with e ->
        (try prerr_string (In_channel.with_open_bin "daemon.log" In_channel.input_all)
         with Sys_error _ -> ());
        raise e)
