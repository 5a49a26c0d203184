(* The serve daemon: wire protocol (framing + request parsing) and the full
   server loop — submit/dedupe/status/metrics/shutdown over a real Unix
   socket, plus checkpoint recovery at startup. The server runs in-process
   on a thread; the engine itself fans out across domains as usual. *)

module Protocol = Tvs_serve.Protocol
module Server = Tvs_serve.Server
module Json = Tvs_obs.Json
module Cli = Tvs_harness.Cli
module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Circuit = Tvs_netlist.Circuit
module Cache = Tvs_store.Cache
module Checkpoint = Tvs_store.Checkpoint
module Digest = Tvs_store.Digest
module Policy = Tvs_core.Policy
module Xor_scheme = Tvs_scan.Xor_scheme

(* --- framing ---------------------------------------------------------- *)

(* A pipe stands in for the socket: write_frame into one end, read_frame
   from the other. Frames under test are far below the pipe buffer, so the
   single-threaded round-trip cannot block. *)
let over_pipe writer =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
  writer oc;
  close_out oc;
  let collect = ref [] in
  let rec drain () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some f ->
        collect := f :: !collect;
        drain ()
  in
  drain ();
  close_in ic;
  List.rev !collect

let test_frame_roundtrip () =
  let docs =
    [
      Json.Obj [ ("verb", Json.Str "ping") ];
      Json.Obj [ ("text", Json.Str "line one\nline two\n") ];
      Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Bool false; Json.Null ];
    ]
  in
  let got = over_pipe (fun oc -> List.iter (Protocol.write_frame oc) docs) in
  Alcotest.(check int) "frame count" (List.length docs) (List.length got);
  List.iter2
    (fun want got ->
      match got with
      | Ok j -> Alcotest.(check string) "round-trips" (Json.to_string want) (Json.to_string j)
      | Error m -> Alcotest.failf "frame error: %s" m)
    docs got

let test_frame_damage () =
  (* Only the first read matters: past a framing error the stream is dead
     by contract, so the helper does not drain. *)
  let feed raw =
    let r, w = Unix.pipe () in
    let oc = Unix.out_channel_of_descr w and ic = Unix.in_channel_of_descr r in
    output_string oc raw;
    close_out oc;
    let res = Protocol.read_frame ic in
    close_in ic;
    match res with
    | Some v -> v
    | None -> Alcotest.fail "expected a frame result, got end-of-stream"
  in
  (match feed "nonsense\n{}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad length accepted");
  (match feed "5\n{}\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated payload accepted");
  (match feed "2\n{}X" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing terminator accepted");
  (match feed "7\nnot-js\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad JSON accepted");
  match feed (Printf.sprintf "%d\n{}\n" (Protocol.max_frame + 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame accepted"

(* --- request parsing -------------------------------------------------- *)

let parse_request s =
  match Json.parse s with
  | Ok j -> Protocol.request_of_json j
  | Error m -> Alcotest.failf "test JSON does not parse: %s" m

let test_request_verbs () =
  (match parse_request {|{"verb":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping");
  (match parse_request {|{"verb":"status"}|} with
  | Ok Protocol.Status -> ()
  | _ -> Alcotest.fail "status");
  (match parse_request {|{"verb":"metrics"}|} with
  | Ok Protocol.Metrics -> ()
  | _ -> Alcotest.fail "metrics");
  (match parse_request {|{"verb":"shutdown"}|} with
  | Ok Protocol.Shutdown -> ()
  | _ -> Alcotest.fail "shutdown");
  (match parse_request {|{"verb":"frobnicate"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb accepted");
  match parse_request {|{"spec":"fig1"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing verb accepted"

let test_submit_defaults () =
  match parse_request {|{"verb":"submit","spec":"fig1"}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "spec source" true (job.Protocol.source = Protocol.Spec "fig1");
      Alcotest.(check (float 0.0)) "scale default" 1.0 job.Protocol.scale;
      Alcotest.(check bool) "scheme default" true (job.Protocol.scheme = Xor_scheme.Nxor);
      Alcotest.(check bool) "selection default" true
        (job.Protocol.selection = Policy.Most_faults 5);
      Alcotest.(check bool) "shift default" true (job.Protocol.shift = None);
      Alcotest.(check string) "label default" "cli" job.Protocol.label
  | _ -> Alcotest.fail "minimal submit rejected"

let test_submit_full_roundtrip () =
  let job =
    {
      Protocol.source = Protocol.Spec "s27";
      kind = Protocol.Stitch;
      format = None;
      scale = 0.5;
      scheme = Xor_scheme.Vxor;
      selection = Policy.Hardness_order;
      shift = Some 3;
      label = "soak";
    }
  in
  match Protocol.request_of_json (Protocol.json_of_job job) with
  | Ok (Protocol.Submit job') ->
      Alcotest.(check bool) "job round-trips through its own JSON" true (job = job')
  | _ -> Alcotest.fail "round-trip rejected"

let test_tpi_verb () =
  (* Minimal tpi request: defaults mirror Tvs_tpi.Tpi.default_options. *)
  (match parse_request {|{"verb":"tpi","spec":"s27"}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "tpi kind with defaults" true
        (job.Protocol.kind = Protocol.Tpi Protocol.default_tpi_params)
  | _ -> Alcotest.fail "minimal tpi rejected");
  (* Explicit params parse into the kind. *)
  (match parse_request {|{"verb":"tpi","spec":"s27","points":3,"budget":5,"controls":true}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "tpi params" true
        (job.Protocol.kind
        = Protocol.Tpi
            { Protocol.default_tpi_params with Protocol.points = 3; budget = 5; controls = true })
  | _ -> Alcotest.fail "tpi with params rejected");
  (* Non-positive counts are typed protocol errors, never defaults. *)
  (match parse_request {|{"verb":"tpi","spec":"s27","points":0}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "points=0 accepted");
  (* A tpi job round-trips through its own JSON. *)
  let job =
    {
      (Protocol.default_job
         ~kind:(Protocol.Tpi { Protocol.points = 3; budget = 6; po_taps = true; controls = false })
         (Protocol.Spec "s444"))
      with
      Protocol.shift = Some 4;
    }
  in
  match Protocol.request_of_json (Protocol.json_of_job job) with
  | Ok (Protocol.Submit job') ->
      Alcotest.(check bool) "tpi job round-trips through its own JSON" true (job = job')
  | _ -> Alcotest.fail "tpi round-trip rejected"

let test_equiv_verb () =
  (* Minimal equiv request: scan-form target, Cec defaults. *)
  (match parse_request {|{"verb":"equiv","spec":"s27","scan":true}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "equiv kind with defaults" true
        (job.Protocol.kind = Protocol.Equiv Protocol.default_equiv_params)
  | _ -> Alcotest.fail "minimal equiv rejected");
  (* Explicit right circuit, budget, vectors and ties. *)
  (match
     parse_request
       {|{"verb":"equiv","spec":"s27","right_spec":"s27","budget":5000,"vectors":4,"scan_map":"scan_en=0,test_mode=1"}|}
   with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "equiv params" true
        (job.Protocol.kind
        = Protocol.Equiv
            {
              Protocol.target = Protocol.Netlist (Protocol.Spec "s27");
              budget = 5000;
              vectors = 4;
              ties = [ ("scan_en", false); ("test_mode", true) ];
            })
  | _ -> Alcotest.fail "equiv with params rejected");
  (* Exactly one target: both, neither and non-positive budgets are typed
     protocol errors. *)
  List.iter
    (fun (what, raw) ->
      match parse_request raw with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: malformed equiv accepted" what)
    [
      ("scan and right", {|{"verb":"equiv","spec":"s27","scan":true,"right_spec":"s27"}|});
      ("no target", {|{"verb":"equiv","spec":"s27"}|});
      ("two rights", {|{"verb":"equiv","spec":"s27","right_spec":"a","right_bench":"b"}|});
      ("budget=0", {|{"verb":"equiv","spec":"s27","scan":true,"budget":0}|});
      ("bad scan_map", {|{"verb":"equiv","spec":"s27","scan":true,"scan_map":"scan_en=2"}|});
    ];
  (* Equiv jobs round-trip through their own JSON, for every target shape. *)
  List.iter
    (fun target ->
      let job =
        Protocol.default_job
          ~kind:
            (Protocol.Equiv
               { Protocol.target; budget = 777; vectors = 3; ties = [ ("scan_en", false) ] })
          (Protocol.Spec "s444")
      in
      match Protocol.request_of_json (Protocol.json_of_job job) with
      | Ok (Protocol.Submit job') ->
          Alcotest.(check bool) "equiv job round-trips through its own JSON" true (job = job')
      | _ -> Alcotest.fail "equiv round-trip rejected")
    [
      Protocol.Scan_form;
      Protocol.Netlist (Protocol.Spec "s27");
      Protocol.Netlist (Protocol.Bench "INPUT(a)\n");
    ]

let test_submit_format () =
  (* Explicit formats parse; "auto" is the spelled-out default. *)
  (match parse_request {|{"verb":"submit","spec":"fig1","format":"verilog"}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "verilog format" true
        (job.Protocol.format = Some Tvs_verilog.Loader.Verilog)
  | _ -> Alcotest.fail "explicit verilog format rejected");
  (match parse_request {|{"verb":"submit","spec":"fig1","format":"bench"}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "bench format" true
        (job.Protocol.format = Some Tvs_verilog.Loader.Bench)
  | _ -> Alcotest.fail "explicit bench format rejected");
  (match parse_request {|{"verb":"submit","spec":"fig1","format":"auto"}|} with
  | Ok (Protocol.Submit job) ->
      Alcotest.(check bool) "auto is the default" true (job.Protocol.format = None)
  | _ -> Alcotest.fail "auto format rejected");
  (* Unknown formats are a typed protocol error naming the field. *)
  (match parse_request {|{"verb":"submit","spec":"fig1","format":"vhdl"}|} with
  | Error m ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the bad value" true (contains m "vhdl")
  | Ok _ -> Alcotest.fail "unknown format accepted");
  (* A job with an explicit format round-trips through its own JSON. *)
  let job =
    {
      (Protocol.default_job (Protocol.Bench "module m (a, y);\n")) with
      Protocol.format = Some Tvs_verilog.Loader.Verilog;
    }
  in
  match Protocol.request_of_json (Protocol.json_of_job job) with
  | Ok (Protocol.Submit job') ->
      Alcotest.(check bool) "format survives the round-trip" true (job = job')
  | _ -> Alcotest.fail "format round-trip rejected"

let test_submit_rejects_malformed () =
  let bad =
    [
      ("no source", {|{"verb":"submit"}|});
      ("both sources", {|{"verb":"submit","spec":"fig1","bench":"INPUT(a)"}|});
      ("scale type", {|{"verb":"submit","spec":"fig1","scale":"big"}|});
      ("scale range", {|{"verb":"submit","spec":"fig1","scale":2.0}|});
      ("scheme vocabulary", {|{"verb":"submit","spec":"fig1","scheme":"xor9"}|});
      ("selection vocabulary", {|{"verb":"submit","spec":"fig1","selection":"best"}|});
      ("shift range", {|{"verb":"submit","spec":"fig1","shift":0}|});
      ("shift type", {|{"verb":"submit","spec":"fig1","shift":"wide"}|});
      ("label type", {|{"verb":"submit","spec":"fig1","label":7}|});
    ]
  in
  List.iter
    (fun (what, raw) ->
      match parse_request raw with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: malformed submit accepted" what)
    bad

(* --- the server ------------------------------------------------------- *)

let fresh_dir () =
  let path = Filename.temp_file "tvs-serve" "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

(* Start a server on a Unix socket in a fresh temp dir, run [f] against it,
   then shut it down through the protocol and check the run result. *)
let with_server ?state_dir f =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "sock" in
  let ready = Atomic.make false in
  let outcome = ref (Error "server never returned") in
  let th =
    Thread.create
      (fun () ->
        outcome :=
          Server.run ?state_dir ~checkpoint_every:1 ~checkpoint_threshold:0
            ~on_ready:(fun () -> Atomic.set ready true)
            (Server.Unix_socket sock))
      ()
  in
  while not (Atomic.get ready) do
    Thread.yield ()
  done;
  Fun.protect
    ~finally:(fun () ->
      (* Idempotent: a test that already sent shutdown just gets a refused
         connection here. *)
      (try
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let oc = Unix.out_channel_of_descr fd in
            Protocol.write_frame oc (Protocol.json_of_request Protocol.Shutdown);
            close_out_noerr oc
          with Unix.Unix_error _ -> Unix.close fd)
       with Unix.Unix_error _ -> ());
      Thread.join th;
      (* [run] has unlinked the socket, so the directory is empty *)
      (try Sys.rmdir dir with Sys_error _ -> ());
      match !outcome with
      | Ok () -> ()
      | Error m -> Alcotest.failf "server run failed: %s" m)
    (fun () -> f sock)

(* A state path that cannot be a directory (a regular file, or a path
   under one) is a startup error: [run] returns [Error] before it binds, so
   [on_ready] never fires and no socket file is left behind. *)
exception Started

let test_server_rejects_bad_state () =
  let dir = fresh_dir () in
  let file = Filename.concat dir "plain" in
  close_out (open_out file);
  let sock = Filename.concat dir "sock" in
  List.iter
    (fun state_dir ->
      (match
         Server.run ~state_dir ~on_ready:(fun () -> raise Started) (Server.Unix_socket sock)
       with
      | Error m ->
          Alcotest.(check bool) (state_dir ^ ": error names --state") true
            (String.starts_with ~prefix:"--state" m)
      | Ok () -> Alcotest.failf "%s: server ran" state_dir
      | exception Started -> Alcotest.failf "%s: server started listening" state_dir);
      Alcotest.(check bool) (state_dir ^ ": no socket file") false (Sys.file_exists sock))
    [ file; Filename.concat file "sub" ]

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let next_event ic =
  match Protocol.read_frame ic with
  | Some (Ok j) -> j
  | Some (Error m) -> Alcotest.failf "frame error from server: %s" m
  | None -> Alcotest.fail "server closed the stream mid-conversation"

let event_name j =
  match Json.member "event" j with Some (Json.Str s) -> s | _ -> "<unnamed>"

let str_field k j = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
let bool_field k j = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

(* Submit and read this job's lifecycle through to done/error, counting
   its checkpoint events into [checkpoints]. *)
let submit_and_wait ?(checkpoints = ref 0) ic oc job =
  Protocol.write_frame oc (Protocol.json_of_job job);
  let rec wait () =
    let j = next_event ic in
    match event_name j with
    | "done" -> Ok j
    | "error" -> Error (Option.value ~default:"?" (str_field "message" j))
    | "checkpoint" ->
        incr checkpoints;
        wait ()
    | "queued" | "started" -> wait ()
    | other -> Alcotest.failf "unexpected event %S" other
  in
  wait ()

(* What `tvs stitch fig1` prints — the byte-exact reference. *)
let expected_fig1 =
  lazy
    (let c = Result.get_ok (Cli.load_circuit "fig1") in
     let prep = Prep.of_circuit c in
     let r = Experiments.run_flow ~label:"cli" prep in
     Experiments.render_summary ~circuit:(Circuit.name c) ~scheme:Xor_scheme.Nxor
       ~selection:(Policy.Most_faults 5) r)

let test_server_end_to_end () =
  let cache_dir = fresh_dir () in
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server (fun sock ->
          let ic, oc = connect sock in
          (* ping *)
          Protocol.write_frame oc (Protocol.json_of_request Protocol.Ping);
          Alcotest.(check string) "pong" "pong" (event_name (next_event ic));
          (* first submission computes, byte-identical to the one-shot CLI *)
          (match submit_and_wait ic oc (Protocol.default_job (Protocol.Spec "fig1")) with
          | Error m -> Alcotest.failf "job failed: %s" m
          | Ok j ->
              Alcotest.(check string) "output matches tvs stitch" (Lazy.force expected_fig1)
                (Option.value ~default:"" (str_field "output" j)));
          (* identical job dedupes through the cache *)
          (match submit_and_wait ic oc (Protocol.default_job (Protocol.Spec "fig1")) with
          | Error m -> Alcotest.failf "repeat failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "repeat flagged cached" (Some true)
                (bool_field "cached" j);
              Alcotest.(check string) "repeat output still identical"
                (Lazy.force expected_fig1)
                (Option.value ~default:"" (str_field "output" j)));
          (* a bad spec fails the job, not the connection or the server *)
          (match
             submit_and_wait ic oc (Protocol.default_job (Protocol.Spec "no-such-circuit"))
           with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "nonexistent spec served");
          (* so does a fixed shift past the scan chain, with the engine's
             message *)
          (match
             submit_and_wait ic oc
               { (Protocol.default_job (Protocol.Spec "fig1")) with Protocol.shift = Some 4 }
           with
          | Error m ->
              Alcotest.(check string) "shift error names both numbers"
                "fixed shift 4 is outside 1..3, the scan chain length of fig1" m
          | Ok _ -> Alcotest.fail "overlong shift served");
          (* and a circuit with no flip-flops, by name *)
          (match
             submit_and_wait ic oc
               (Protocol.default_job (Protocol.Bench "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"))
           with
          | Error m ->
              Alcotest.(check bool) ("flop-less circuit refused: " ^ m) true
                (String.ends_with ~suffix:"has no flip-flops: the stitched flow needs a scan chain"
                   m)
          | Ok _ -> Alcotest.fail "flop-less circuit served");
          (* a submit-level parse error keeps the connection alive too *)
          Protocol.write_frame oc
            (Json.Obj [ ("verb", Json.Str "submit"); ("spec", Json.Int 3) ]);
          Alcotest.(check string) "parse error reported" "error"
            (event_name (next_event ic));
          (* status and metrics still answer on the same connection *)
          Protocol.write_frame oc (Protocol.json_of_request Protocol.Status);
          let s = next_event ic in
          Alcotest.(check string) "status event" "status" (event_name s);
          Alcotest.(check bool) "status reports queue depth" true
            (match Json.member "queue" s with Some (Json.Int _) -> true | _ -> false);
          Protocol.write_frame oc (Protocol.json_of_request Protocol.Metrics);
          let m = next_event ic in
          Alcotest.(check string) "metrics event" "metrics" (event_name m);
          Alcotest.(check bool) "metrics carries the registry" true
            (match Json.member "metrics" m with Some (Json.Arr (_ :: _)) -> true | _ -> false);
          close_out_noerr oc))

let deduped_count ic oc =
  Protocol.write_frame oc (Protocol.json_of_request Protocol.Status);
  match Json.member "deduped" (next_event ic) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "status without a deduped count"

(* Without a cache nothing can be replayed: a repeated job runs the engine
   again, so it must not be flagged cached or counted as deduped. *)
let test_server_no_cache_repeat () =
  with_server (fun sock ->
      let ic, oc = connect sock in
      let d0 = deduped_count ic oc in
      for i = 1 to 2 do
        match submit_and_wait ic oc (Protocol.default_job (Protocol.Spec "fig1")) with
        | Error m -> Alcotest.failf "job %d failed: %s" i m
        | Ok j ->
            Alcotest.(check (option bool)) (Printf.sprintf "job %d not cached" i) (Some false)
              (bool_field "cached" j);
            Alcotest.(check string) "output matches tvs stitch" (Lazy.force expected_fig1)
              (Option.value ~default:"" (str_field "output" j))
      done;
      Alcotest.(check int) "serve.jobs.deduped unchanged" d0 (deduped_count ic oc);
      close_out_noerr oc)

(* A damaged entry for the job is evicted and recomputed: the job is not
   flagged cached, checkpoints like any fresh job, prints the one-shot bytes
   and leaves a readable entry behind. *)
let test_server_damaged_entry () =
  let cache_dir = fresh_dir () and state_dir = fresh_dir () in
  let cache = Result.get_ok (Cache.open_dir cache_dir) in
  let prep = Prep.of_circuit (Result.get_ok (Cli.load_circuit "fig1")) in
  let key = Experiments.run_key ~label:"cli" prep in
  let path = Cache.entry_path cache ~kind:Experiments.summary_kind ~key in
  let oc = open_out_bin path in
  output_string oc "damaged entry";
  close_out oc;
  Cache.install (Some cache);
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server ~state_dir (fun sock ->
          let ic, oc = connect sock in
          let d0 = deduped_count ic oc in
          let checkpoints = ref 0 in
          (match
             submit_and_wait ~checkpoints ic oc (Protocol.default_job (Protocol.Spec "fig1"))
           with
          | Error m -> Alcotest.failf "job failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "not flagged cached" (Some false)
                (bool_field "cached" j);
              Alcotest.(check string) "output matches tvs stitch" (Lazy.force expected_fig1)
                (Option.value ~default:"" (str_field "output" j)));
          Alcotest.(check bool) "recomputed job checkpointed" true (!checkpoints > 0);
          Alcotest.(check int) "serve.jobs.deduped unchanged" d0 (deduped_count ic oc);
          close_out_noerr oc));
  Alcotest.(check bool) "entry rewritten" true
    (Cache.find cache ~kind:Experiments.summary_kind ~key Experiments.read_summary
    = Some (Experiments.run_flow ~label:"cli" prep))

(* A big job the cache answers runs no engine: with a state directory and
   threshold 0, the first job checkpoints and its repeat streams no
   checkpoint event, leaves no .ckpt file and reads "cached": true. *)
let test_server_cached_job_writes_no_checkpoint () =
  let cache_dir = fresh_dir () and state_dir = fresh_dir () in
  let ckpt_files () =
    List.filter
      (fun f -> Filename.check_suffix f ".ckpt")
      (Array.to_list (Sys.readdir state_dir))
  in
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server ~state_dir (fun sock ->
          let ic, oc = connect sock in
          let submit what =
            let checkpoints = ref 0 in
            match
              submit_and_wait ~checkpoints ic oc (Protocol.default_job (Protocol.Spec "fig1"))
            with
            | Error m -> Alcotest.failf "%s job failed: %s" what m
            | Ok j ->
                Alcotest.(check string) (what ^ ": output matches tvs stitch")
                  (Lazy.force expected_fig1)
                  (Option.value ~default:"" (str_field "output" j));
                (bool_field "cached" j, !checkpoints)
          in
          let cached, checkpoints = submit "first" in
          Alcotest.(check (option bool)) "first: computed" (Some false) cached;
          Alcotest.(check bool) "first: checkpointed" true (checkpoints > 0);
          Alcotest.(check (pair (option bool) int)) "repeat: cached, no checkpoint event"
            (Some true, 0) (submit "repeat");
          Alcotest.(check (list string)) "no .ckpt file left" [] (ckpt_files ());
          close_out_noerr oc))

(* --- inline netlists ---------------------------------------------------- *)

(* A self-contained sequential netlist, as .bench and as structural
   Verilog. *)
let inline_seq_text = "INPUT(a)\nOUTPUT(y)\nf = DFF(g)\ng = NAND(a, f)\ny = NOT(f)\n"

let inline_verilog_text =
  "module inline_v (a, clk, y);\n  input a, clk;\n  output y;\n  wire f, g;\n\
   \  tvs_dff ff (.q(f), .d(g), .clk(clk));\n  nand u1 (g, a, f);\n\
   \  not u2 (y, f);\nendmodule\n"

(* [serve.inline.parsed], read over the metrics verb. *)
let parsed_count ic oc =
  Protocol.write_frame oc (Protocol.json_of_request Protocol.Metrics);
  match Json.member "metrics" (next_event ic) with
  | Some (Json.Arr ms) -> (
      match List.find_opt (fun m -> str_field "name" m = Some "serve.inline.parsed") ms with
      | Some m -> (
          match Json.member "value" m with
          | Some (Json.Int n) -> n
          | _ -> Alcotest.fail "serve.inline.parsed without an integer value")
      | None -> Alcotest.fail "metrics event without serve.inline.parsed")
  | _ -> Alcotest.fail "metrics event without a registry"

let inline_stitch ?format ?(label = "cli") text =
  { (Protocol.default_job (Protocol.Bench text)) with Protocol.format; label }

let inline_equiv text =
  Protocol.default_job ~kind:(Protocol.Equiv Protocol.default_equiv_params) (Protocol.Bench text)

(* What `tvs stitch` and `tvs equiv --scan` print for an inline text. *)
let stitch_reference ?(label = "cli") text =
  let c = Result.get_ok (Cli.inline_circuit text) in
  Experiments.render_summary ~circuit:(Circuit.name c) ~scheme:Xor_scheme.Nxor
    ~selection:(Policy.Most_faults 5)
    (Experiments.run_flow ~label (Prep.of_circuit c))

let equiv_reference text =
  let module Cec = Tvs_cec.Cec in
  let c = Result.get_ok (Cli.inline_circuit text) in
  Cec.to_ascii (Cec.check c (Tvs_netlist.Scan_insert.insert c).Tvs_netlist.Scan_insert.circuit)

(* A done event without its job id, for comparing the responses to two
   submissions of one job. *)
let response j =
  match j with
  | Json.Obj fields -> Json.to_string (Json.Obj (List.remove_assoc "id" fields))
  | _ -> Alcotest.fail "done event is not an object"

let test_server_inline_bench () =
  (* Inline jobs must work without any file on the server side. *)
  let text = inline_seq_text in
  let expected = stitch_reference text in
  with_server (fun sock ->
      let ic, oc = connect sock in
      (match submit_and_wait ic oc (Protocol.default_job (Protocol.Bench text)) with
      | Error m -> Alcotest.failf "inline job failed: %s" m
      | Ok j ->
          Alcotest.(check string) "inline output matches in-process run" expected
            (Option.value ~default:"" (str_field "output" j)));
      (* Malformed inline text is a job error with a line number. *)
      (match submit_and_wait ic oc (Protocol.default_job (Protocol.Bench "y = NOT(\n")) with
      | Error m -> Alcotest.(check bool) "names the line" true (String.length m > 0)
      | Ok _ -> Alcotest.fail "malformed netlist served");
      close_out_noerr oc)

let test_server_inline_verilog () =
  (* The same sequential netlist as the inline-bench test, written in
     structural Verilog and auto-detected from the content — no format
     field, no file. *)
  let text = inline_verilog_text in
  let expected = stitch_reference text in
  with_server (fun sock ->
      let ic, oc = connect sock in
      (match submit_and_wait ic oc (Protocol.default_job (Protocol.Bench text)) with
      | Error m -> Alcotest.failf "inline verilog job failed: %s" m
      | Ok j ->
          Alcotest.(check string) "verilog inline output matches in-process run" expected
            (Option.value ~default:"" (str_field "output" j)));
      (* Forcing the wrong format turns the same text into a job error. *)
      (match
         submit_and_wait ic oc
           {
             (Protocol.default_job (Protocol.Bench text)) with
             Protocol.format = Some Tvs_verilog.Loader.Bench;
           }
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "verilog text served as .bench");
      close_out_noerr oc)

(* Nine jobs on one text, three of each kind: one parse answers them all,
   the equiv jobs share one scan form, and every response is the first
   one of its kind and the in-process rendering. *)
let test_server_inline_parsed_once () =
  let text = inline_seq_text in
  let kinds =
    [
      ("equiv --scan", inline_equiv text, equiv_reference text);
      ("stitch cli", inline_stitch text, stitch_reference text);
      ("stitch other", inline_stitch ~label:"other" text, stitch_reference ~label:"other" text);
    ]
  in
  with_server (fun sock ->
      let ic, oc = connect sock in
      let p0 = parsed_count ic oc in
      let first = Hashtbl.create 3 in
      for round = 1 to 3 do
        List.iter
          (fun (kind, job, expected) ->
            let what = Printf.sprintf "%s, round %d" kind round in
            match submit_and_wait ic oc job with
            | Error m -> Alcotest.failf "%s failed: %s" what m
            | Ok j -> (
                Alcotest.(check string) (what ^ ": output matches the in-process run") expected
                  (Option.value ~default:"" (str_field "output" j));
                match Hashtbl.find_opt first kind with
                | None -> Hashtbl.add first kind (response j)
                | Some r -> Alcotest.(check string) (what ^ ": response equals the first") r (response j)))
          kinds
      done;
      Alcotest.(check int) "one parse for nine jobs" (p0 + 1) (parsed_count ic oc);
      close_out_noerr oc)

(* The resolved format is part of the key: a .bench text forced to Verilog
   is its own entry with its own parse (which fails), while an explicit
   format equal to the detected one shares the detected entry. *)
let test_server_inline_format_keys () =
  let verilog = inline_verilog_text in
  let bench_out = stitch_reference inline_seq_text and verilog_out = stitch_reference verilog in
  with_server (fun sock ->
      let ic, oc = connect sock in
      let p0 = parsed_count ic oc in
      let served what expected parsed job =
        (match submit_and_wait ic oc job with
        | Error m -> Alcotest.failf "%s failed: %s" what m
        | Ok j ->
            Alcotest.(check string) (what ^ ": output") expected
              (Option.value ~default:"" (str_field "output" j)));
        Alcotest.(check int) (what ^ ": parses so far") (p0 + parsed) (parsed_count ic oc)
      in
      served ".bench, detected" bench_out 1 (inline_stitch inline_seq_text);
      served ".bench, format bench" bench_out 1
        (inline_stitch ~format:Tvs_verilog.Loader.Bench inline_seq_text);
      (match
         submit_and_wait ic oc (inline_stitch ~format:Tvs_verilog.Loader.Verilog inline_seq_text)
       with
      | Error m ->
          Alcotest.(check bool) (".bench as verilog: a Verilog parse error: " ^ m) true
            (String.starts_with ~prefix:"inline netlist, line 1:" m)
      | Ok _ -> Alcotest.fail ".bench text served as Verilog");
      Alcotest.(check int) ".bench as verilog: its own parse" (p0 + 2) (parsed_count ic oc);
      served "verilog, detected" verilog_out 3 (inline_stitch verilog);
      served "verilog, format verilog" verilog_out 3
        (inline_stitch ~format:Tvs_verilog.Loader.Verilog verilog);
      close_out_noerr oc)

(* A text that fails to parse is not kept: the same error every time, and
   a parse every time. *)
let test_server_inline_errors_not_kept () =
  with_server (fun sock ->
      let ic, oc = connect sock in
      let p0 = parsed_count ic oc in
      let errors =
        List.init 3 (fun _ ->
            match submit_and_wait ic oc (inline_stitch "y = NOT(\n") with
            | Error m -> m
            | Ok _ -> Alcotest.fail "malformed netlist served")
      in
      Alcotest.(check (list string)) "the same error three times"
        (List.init 3 (fun _ -> List.hd errors))
        errors;
      Alcotest.(check int) "three parses" (p0 + 3) (parsed_count ic oc);
      close_out_noerr oc)

(* One text more than the table holds: the last insertion empties the
   table, so the first text parses again, with the same response, while
   the last one is still held. *)
let test_server_inline_table_resets () =
  let texts =
    Array.init (Server.inline_capacity + 1) (fun k ->
        Printf.sprintf "# variant %d\n%s" k inline_seq_text)
  in
  let last = Array.length texts - 1 in
  with_server (fun sock ->
      let ic, oc = connect sock in
      let submit k =
        match submit_and_wait ic oc (inline_equiv texts.(k)) with
        | Error m -> Alcotest.failf "text %d failed: %s" k m
        | Ok j -> j
      in
      let p0 = parsed_count ic oc in
      let first = Array.init (Array.length texts) submit in
      Alcotest.(check int) "one parse per text" (p0 + Array.length texts) (parsed_count ic oc);
      Alcotest.(check string) "first text: output matches the in-process run"
        (equiv_reference texts.(0))
        (Option.value ~default:"" (str_field "output" first.(0)));
      Alcotest.(check string) "first text again: same response" (response first.(0))
        (response (submit 0));
      Alcotest.(check int) "first text again: parsed again" (p0 + Array.length texts + 1)
        (parsed_count ic oc);
      Alcotest.(check string) "last text again: same response" (response first.(last))
        (response (submit last));
      Alcotest.(check int) "last text again: still held" (p0 + Array.length texts + 1)
        (parsed_count ic oc);
      close_out_noerr oc)

(* Save a genuine first-cycle checkpoint of [c]'s default stitch job under
   [spec], the way a dying server would have left it. *)
let save_first_checkpoint path ~spec c =
  let prep = Prep.of_circuit c in
  let snap = ref None in
  ignore
    (Experiments.run_flow
       ~checkpoint:(1, fun s -> if !snap = None then snap := Some s)
       ~label:"cli" prep);
  let snapshot =
    match !snap with Some s -> s | None -> Alcotest.fail "no snapshot captured"
  in
  let config = Experiments.config_for prep in
  Checkpoint.save path
    {
      Checkpoint.spec;
      scale = 1.0;
      scheme = Xor_scheme.Nxor;
      selection = Policy.Most_faults 5;
      shift = None;
      label = "cli";
      circuit_digest = Digest.circuit c;
      config_digest = Digest.config ~config ~label:"cli";
      snapshot;
    }

(* Recovery jobs are queued before on_ready; wait until they have run. *)
let rec await_idle ic oc =
  Protocol.write_frame oc (Protocol.json_of_request Protocol.Status);
  let s = next_event ic in
  let queue = match Json.member "queue" s with Some (Json.Int n) -> n | _ -> -1 in
  if not (queue = 0 && bool_field "running" s = Some false) then begin
    Thread.yield ();
    await_idle ic oc
  end

(* Crash recovery: a checkpoint left behind by a killed server is replayed
   at startup — digest-verified — and its result lands in the cache, so the
   client's retry is a dedupe hit with the exact one-shot bytes. *)
let test_server_recovery () =
  let state_dir = fresh_dir () and cache_dir = fresh_dir () in
  save_first_checkpoint
    (Filename.concat state_dir "job-interrupted.ckpt")
    ~spec:"fig1"
    (Result.get_ok (Cli.load_circuit "fig1"));
  (* And one damaged file, which startup must drop instead of crash on. *)
  let oc = open_out_bin (Filename.concat state_dir "job-damaged.ckpt") in
  output_string oc "not a checkpoint";
  close_out oc;
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server ~state_dir (fun sock ->
          let ic, oc = connect sock in
          (* once the recovery job finishes, the same submission must be
             served from the cache *)
          await_idle ic oc;
          Alcotest.(check bool) "resumed checkpoint removed" false
            (Sys.file_exists (Filename.concat state_dir "job-interrupted.ckpt"));
          Alcotest.(check bool) "damaged checkpoint dropped" false
            (Sys.file_exists (Filename.concat state_dir "job-damaged.ckpt"));
          (match submit_and_wait ic oc (Protocol.default_job (Protocol.Spec "fig1")) with
          | Error m -> Alcotest.failf "post-recovery job failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "served from the recovered result" (Some true)
                (bool_field "cached" j);
              Alcotest.(check string) "recovered output byte-identical"
                (Lazy.force expected_fig1)
                (Option.value ~default:"" (str_field "output" j)));
          close_out_noerr oc))

(* An inline Verilog job's checkpoint resumes too. Its spec is the text the
   daemon persisted as inline-<hex>.v, which must reparse under that file
   name: loaded as a Verilog file, the circuit would be named after its
   module, miss the checkpoint's digest and be abandoned. *)
let test_server_inline_verilog_recovery () =
  let state_dir = fresh_dir () and cache_dir = fresh_dir () in
  let text =
    (Tvs_verilog.Emitter.emit (Result.get_ok (Cli.load_circuit "s27"))).Tvs_verilog.Emitter.text
  in
  let spec = Filename.concat state_dir (Cli.inline_file_name text) in
  Out_channel.with_open_bin spec (fun oc -> output_string oc text);
  let ckpt = Filename.concat state_dir "job-inline.ckpt" in
  save_first_checkpoint ckpt ~spec (Result.get_ok (Cli.inline_circuit text));
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server ~state_dir (fun sock ->
          let ic, oc = connect sock in
          await_idle ic oc;
          Alcotest.(check bool) "resumed checkpoint removed" false (Sys.file_exists ckpt);
          (match submit_and_wait ic oc (Protocol.default_job (Protocol.Bench text)) with
          | Error m -> Alcotest.failf "inline job failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "served from the recovered result" (Some true)
                (bool_field "cached" j);
              Alcotest.(check string) "recovered output byte-identical" (stitch_reference text)
                (Option.value ~default:"" (str_field "output" j)));
          close_out_noerr oc))

(* A client that sends shutdown and hangs up at once, as [with_server] ends
   every lifetime: no server thread may die of an uncaught exception, such
   as a connection thread writing to the wake pipe [run] has already
   closed. *)
let test_server_shutdown_and_hang_up () =
  let uncaught = Atomic.make 0 in
  Thread.set_uncaught_exception_handler (fun _ -> Atomic.incr uncaught);
  Fun.protect
    ~finally:(fun () ->
      Thread.set_uncaught_exception_handler Thread.default_uncaught_exception_handler)
    (fun () ->
      for _ = 1 to 100 do
        with_server (fun _ -> ())
      done;
      (* a connection thread can outlive [run]: give a late one time to die *)
      Thread.delay 0.1;
      Alcotest.(check int) "uncaught exceptions in server threads" 0 (Atomic.get uncaught))

(* A tpi job end-to-end: the done event carries the study document and the
   exact bytes `tvs tpi` would print; an identical resubmission dedupes
   through the TPIS cache kind. *)
let test_server_tpi () =
  let cache_dir = fresh_dir () in
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server (fun sock ->
          let ic, oc = connect sock in
          let job = Protocol.default_job ~kind:(Protocol.Tpi Protocol.default_tpi_params)
              (Protocol.Spec "s27")
          in
          let first =
            match submit_and_wait ic oc job with
            | Error m -> Alcotest.failf "tpi job failed: %s" m
            | Ok j -> j
          in
          (* The study is now cached; rendering it locally replays the same
             bytes the one-shot CLI prints. *)
          let module Tpi = Tvs_tpi.Tpi in
          let expected =
            Tpi.to_ascii (Tpi.run (Result.get_ok (Cli.load_circuit "s27")))
          in
          Alcotest.(check string) "output matches tvs tpi" expected
            (Option.value ~default:"" (str_field "output" first));
          Alcotest.(check bool) "done event carries the study document" true
            (Json.member "tpi" first <> None);
          (match submit_and_wait ic oc job with
          | Error m -> Alcotest.failf "tpi repeat failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "repeat flagged cached" (Some true)
                (bool_field "cached" j);
              Alcotest.(check string) "repeat output still identical" expected
                (Option.value ~default:"" (str_field "output" j)));
          close_out_noerr oc))

(* An equiv job end-to-end: the done event carries the verdict, the check
   document and the exact bytes `tvs equiv --scan` would print; an identical
   resubmission dedupes through the CEQV cache kind. *)
let test_server_equiv () =
  let module Cec = Tvs_cec.Cec in
  let cache_dir = fresh_dir () in
  Cache.install (Some (Result.get_ok (Cache.open_dir cache_dir)));
  Fun.protect
    ~finally:(fun () -> Cache.install None)
    (fun () ->
      with_server (fun sock ->
          let ic, oc = connect sock in
          let job =
            Protocol.default_job
              ~kind:(Protocol.Equiv Protocol.default_equiv_params)
              (Protocol.Spec "s27")
          in
          let first =
            match submit_and_wait ic oc job with
            | Error m -> Alcotest.failf "equiv job failed: %s" m
            | Ok j -> j
          in
          let expected =
            let left = Result.get_ok (Cli.load_circuit "s27") in
            let right = (Tvs_netlist.Scan_insert.insert left).Tvs_netlist.Scan_insert.circuit in
            Cec.to_ascii (Cec.check left right)
          in
          Alcotest.(check (option string)) "scan form proven equivalent" (Some "equivalent")
            (str_field "verdict" first);
          Alcotest.(check string) "output matches tvs equiv --scan" expected
            (Option.value ~default:"" (str_field "output" first));
          Alcotest.(check bool) "done event carries the check document" true
            (Json.member "equiv" first <> None);
          (match submit_and_wait ic oc job with
          | Error m -> Alcotest.failf "equiv repeat failed: %s" m
          | Ok j ->
              Alcotest.(check (option bool)) "repeat flagged cached" (Some true)
                (bool_field "cached" j);
              Alcotest.(check string) "repeat output still identical" expected
                (Option.value ~default:"" (str_field "output" j)));
          (* An interface mismatch is a job error, not a dead server. *)
          (match
             submit_and_wait ic oc
               (Protocol.default_job
                  ~kind:
                    (Protocol.Equiv
                       {
                         Protocol.default_equiv_params with
                         Protocol.target = Protocol.Netlist (Protocol.Spec "fig1");
                       })
                  (Protocol.Spec "s27"))
           with
          | Error m -> Alcotest.(check bool) "mismatch reported" true (String.length m > 0)
          | Ok _ -> Alcotest.fail "mismatched interfaces served");
          close_out_noerr oc))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "frame damage detected" `Quick test_frame_damage;
          Alcotest.test_case "request verbs" `Quick test_request_verbs;
          Alcotest.test_case "submit defaults" `Quick test_submit_defaults;
          Alcotest.test_case "submit full round-trip" `Quick test_submit_full_roundtrip;
          Alcotest.test_case "tpi verb" `Quick test_tpi_verb;
          Alcotest.test_case "equiv verb" `Quick test_equiv_verb;
          Alcotest.test_case "submit format field" `Quick test_submit_format;
          Alcotest.test_case "malformed submits rejected" `Quick test_submit_rejects_malformed;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over a Unix socket" `Quick test_server_end_to_end;
          Alcotest.test_case "repeat without a cache not cached" `Quick
            test_server_no_cache_repeat;
          Alcotest.test_case "damaged cache entry recomputed" `Quick test_server_damaged_entry;
          Alcotest.test_case "inline netlist jobs" `Quick test_server_inline_bench;
          Alcotest.test_case "inline verilog jobs" `Quick test_server_inline_verilog;
          Alcotest.test_case "inline text parsed once" `Quick test_server_inline_parsed_once;
          Alcotest.test_case "inline format is part of the key" `Quick
            test_server_inline_format_keys;
          Alcotest.test_case "inline parse errors not kept" `Quick
            test_server_inline_errors_not_kept;
          Alcotest.test_case "inline table resets when full" `Quick
            test_server_inline_table_resets;
          Alcotest.test_case "cached job writes no checkpoint" `Quick
            test_server_cached_job_writes_no_checkpoint;
          Alcotest.test_case "checkpoint recovery at startup" `Quick test_server_recovery;
          Alcotest.test_case "inline verilog checkpoint resumes" `Quick
            test_server_inline_verilog_recovery;
          Alcotest.test_case "shutdown and hang up, 100 lifetimes" `Quick
            test_server_shutdown_and_hang_up;
          Alcotest.test_case "unusable state dir rejected" `Quick test_server_rejects_bad_state;
          Alcotest.test_case "tpi jobs" `Quick test_server_tpi;
          Alcotest.test_case "equiv jobs" `Quick test_server_equiv;
        ] );
    ]
