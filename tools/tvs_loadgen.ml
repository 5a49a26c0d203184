(* Load generator and correctness checker for [tvs serve].

   Drives a running daemon over its JSONL protocol from N worker threads,
   each with its own connection, round-robining a mix of circuit specs.
   With --verify, the expected summary block is computed in-process once
   per unique spec (the same run_flow + render_summary path the CLI and the
   server use) and every response's "output" field must match it
   byte-for-byte — the serve contract under test.

   Single-shot modes for scripting:
     --one SPEC        submit one job, print its "output" bytes to stdout
     --one-bench FILE  same, submitting FILE's contents as an inline netlist
     --status          print the server's status event JSON
     --metrics         print the server's metrics event JSON
     --wait-idle       poll status until the queue is empty and nothing runs
     --shutdown        ask the server to drain and exit *)

module Protocol = Tvs_serve.Protocol
module Json = Tvs_obs.Json
module Experiments = Tvs_harness.Experiments
module Prep = Tvs_harness.Prep
module Cli = Tvs_harness.Cli
module Circuit = Tvs_netlist.Circuit

let socket_path = ref ""
let port = ref 0
let count = ref 100
let concurrency = ref 8
let mix = ref "fig1,s27"
let verify = ref false
let one = ref ""
let one_bench = ref ""
let status = ref false
let metrics = ref false
let wait_idle = ref false
let shutdown = ref false

let specs =
  [
    ("--socket", Arg.Set_string socket_path, "PATH Unix-domain socket of the server");
    ("--port", Arg.Set_int port, "PORT TCP port of the server (127.0.0.1)");
    ("--count", Arg.Set_int count, "N total jobs to submit (default 100)");
    ("--concurrency", Arg.Set_int concurrency, "N worker connections (default 8)");
    ("--mix", Arg.Set_string mix, "LIST comma-separated circuit specs (default fig1,s27)");
    ("--verify", Arg.Set verify, " byte-check every response against an in-process run");
    ("--one", Arg.Set_string one, "SPEC submit one job and print its output to stdout");
    ("--one-bench", Arg.Set_string one_bench, "FILE submit FILE as an inline netlist job");
    ("--status", Arg.Set status, " print the server's status event and exit");
    ("--metrics", Arg.Set metrics, " print the server's metrics event and exit");
    ("--wait-idle", Arg.Set wait_idle, " poll status until the server is idle");
    ("--shutdown", Arg.Set shutdown, " ask the server to drain its queue and exit");
  ]

let usage = "tvs_loadgen (--socket PATH | --port PORT) [options]"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("tvs_loadgen: " ^ m); exit 2) fmt

let connect () =
  let fd, addr =
    if !socket_path <> "" then
      (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX !socket_path)
    else if !port > 0 then
      ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
        Unix.ADDR_INET (Unix.inet_addr_loopback, !port) )
    else die "need --socket PATH or --port PORT"
  in
  (match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) ->
      die "cannot connect: %s" (Unix.error_message err));
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let str_field k j =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let bool_field k j =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

(* Submit one job and block until its done/error event. The protocol
   guarantees lifecycle order per connection, and each worker keeps exactly
   one job in flight, so intermediate queued/started/checkpoint events can
   simply be skipped. *)
let submit_and_wait ic oc job =
  Protocol.write_frame oc (Protocol.json_of_job job);
  let rec wait () =
    match Protocol.read_frame ic with
    | None -> Error "server closed the connection"
    | Some (Error m) -> Error ("protocol error: " ^ m)
    | Some (Ok j) -> (
        match str_field "event" j with
        | Some "done" -> Ok j
        | Some "error" ->
            Error (Option.value ~default:"unspecified server error" (str_field "message" j))
        | _ -> wait ())
  in
  wait ()

let request_event verb want =
  let ic, oc = connect () in
  Protocol.write_frame oc (Protocol.json_of_request verb);
  let r =
    match Protocol.read_frame ic with
    | Some (Ok j) when str_field "event" j = Some want -> Ok j
    | Some (Ok j) -> Error ("unexpected reply: " ^ Json.to_string j)
    | Some (Error m) -> Error m
    | None -> Error "server closed the connection"
  in
  close_out_noerr oc;
  r

(* The reference result, produced exactly the way `tvs stitch SPEC` does. *)
let expected_for spec =
  match Cli.load_circuit spec with
  | Error m -> die "--verify: cannot build %S locally: %s" spec m
  | Ok c ->
      let prep = Prep.of_circuit c in
      let r = Experiments.run_flow ~label:"cli" prep in
      Experiments.render_summary ~circuit:(Circuit.name c)
        ~scheme:Tvs_scan.Xor_scheme.Nxor ~selection:(Tvs_core.Policy.Most_faults 5) r

let run_load () =
  let mix = List.filter (fun s -> s <> "") (String.split_on_char ',' !mix) in
  if mix = [] then die "--mix: empty spec list";
  if !count < 1 then die "--count must be >= 1";
  if !concurrency < 1 then die "--concurrency must be >= 1";
  let expected = Hashtbl.create 8 in
  if !verify then
    List.iter
      (fun spec ->
        if not (Hashtbl.mem expected spec) then Hashtbl.add expected spec (expected_for spec))
      mix;
  let ok = Atomic.make 0
  and cached = Atomic.make 0
  and failed = Atomic.make 0
  and mismatched = Atomic.make 0 in
  let job_of_index i = List.nth mix (i mod List.length mix) in
  let worker w =
    let ic, oc = connect () in
    let rec loop i =
      if i < !count then begin
        let spec = job_of_index i in
        (match submit_and_wait ic oc (Protocol.default_job (Protocol.Spec spec)) with
        | Error m ->
            Atomic.incr failed;
            Printf.eprintf "tvs_loadgen: job %d (%s) failed: %s\n%!" i spec m
        | Ok j ->
            Atomic.incr ok;
            if bool_field "cached" j = Some true then Atomic.incr cached;
            if !verify then begin
              let got = Option.value ~default:"" (str_field "output" j) in
              let want = Hashtbl.find expected spec in
              if got <> want then begin
                Atomic.incr mismatched;
                Printf.eprintf
                  "tvs_loadgen: job %d (%s): response differs from one-shot CLI output\n--- \
                   expected ---\n%s--- got ---\n%s%!"
                  i spec want got
              end
            end);
        loop (i + !concurrency)
      end
    in
    loop w;
    close_out_noerr oc
  in
  let threads = List.init !concurrency (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  Printf.eprintf "tvs_loadgen: %d ok (%d cached), %d failed, %d mismatched of %d jobs\n%!"
    (Atomic.get ok) (Atomic.get cached) (Atomic.get failed) (Atomic.get mismatched) !count;
  if Atomic.get failed > 0 || Atomic.get mismatched > 0 then exit 1

let run_one job =
  let ic, oc = connect () in
  (match submit_and_wait ic oc job with
  | Error m -> die "job failed: %s" m
  | Ok j -> (
      match str_field "output" j with
      | Some out -> print_string out
      | None -> die "done event carried no output field"));
  close_out_noerr oc

let run_wait_idle () =
  let rec poll () =
    match request_event Protocol.Status "status" with
    | Error m -> die "status poll failed: %s" m
    | Ok j -> (
        let queue = match Json.member "queue" j with Some (Json.Int n) -> n | _ -> -1 in
        match (queue, bool_field "running" j) with
        | 0, Some false -> ()
        | _ ->
            Thread.delay 0.2;
            poll ())
  in
  poll ()

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  let print_event verb name =
    match request_event verb name with
    | Ok j -> print_endline (Json.to_string j)
    | Error m -> die "%s failed: %s" name m
  in
  if !status then print_event Protocol.Status "status"
  else if !metrics then print_event Protocol.Metrics "metrics"
  else if !wait_idle then run_wait_idle ()
  else if !shutdown then
    match request_event Protocol.Shutdown "shutting-down" with
    | Ok _ -> ()
    | Error m -> die "shutdown failed: %s" m
  else if !one <> "" then run_one (Protocol.default_job (Protocol.Spec !one))
  else if !one_bench <> "" then begin
    let text = In_channel.with_open_bin !one_bench In_channel.input_all in
    run_one (Protocol.default_job (Protocol.Bench text))
  end
  else run_load ()
