(* Helpers shared by the three workloads: workload inputs derived from the
   seed, order statistics, peak memory, span self times, and the result the
   benchmark prints. *)

module Profiles = Tvs_circuits.Profiles
module Clock = Tvs_util.Clock
module Json = Tvs_obs.Json

(* --- inputs ------------------------------------------------------------- *)

(* The canonical circuit of a profile, as [tvs stitch NAME --scale F]
   builds it. The seed never changes a circuit: renamed profiles hash into
   netlists of the same shape but of different difficulty, and moved the
   work itself by 15-20% from seed to seed. *)
let circuit ?(scale = 1.0) name =
  Tvs_circuits.Synth.generate (Profiles.scale (Profiles.find name) scale)

(* The summary block [tvs stitch] prints for a flow with the defaults. *)
let render c summary =
  Tvs_harness.Experiments.render_summary ~circuit:(Tvs_netlist.Circuit.name c)
    ~scheme:Tvs_scan.Xor_scheme.Nxor ~selection:(Tvs_core.Policy.Most_faults 5) summary

(* The engine label seeds the engine's RNG stream. Seed 0 starts from the
   CLI's "cli", so its first run is byte-comparable with [tvs stitch]. *)
let label ~seed k =
  match (seed, k) with
  | 0, 0 -> "cli"
  | 0, k -> Printf.sprintf "cli-%d" k
  | s, k -> Printf.sprintf "bench%d-%d" s k

(* --- statistics --------------------------------------------------------- *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [f ()] [n] times; the median of the elapsed seconds and the last result. *)
let median_time n f =
  let rec go k acc last =
    if k = 0 then (median acc, Option.get last)
    else
      let r, dt = Clock.time_it f in
      go (k - 1) (dt :: acc) (Some r)
  in
  go n [] None

(* --- machine speed ------------------------------------------------------ *)

(* On a shared host the same code runs up to 1.7x slower from one stretch
   of seconds to the next, and the average drifts between minutes. A
   sampler thread times a fixed kernel of the benchmark's own every 100 ms,
   on the CPU the work runs on (run.sh pins the process, and the daemon it
   starts, to one CPU). Every reported time is multiplied by
   [nominal_kernel_s /. median sample], i.e. given at the speed at which
   the kernel takes [nominal_kernel_s]; every rate is divided by it. The
   kernel sums a 4 MiB array in order: it allocates nothing, and it slows
   with the shared caches and memory that other tenants load, as the
   workloads do. See README.md. *)
module Speed = struct
  let nominal_kernel_s = 800e-6
  let period_s = 0.1

  let buffer = Array.make (1 lsl 19) 1

  let kernel () =
    let t0 = Clock.now () in
    let s = ref 0 in
    for i = 0 to Array.length buffer - 1 do
      s := !s + Array.unsafe_get buffer i
    done;
    ignore (Sys.opaque_identity !s);
    Clock.now () -. t0

  type state = { m : Mutex.t; mutable samples : float list; mutable stop : bool }
  type t = state * Thread.t

  let start () =
    let rec sample s =
      Unix.sleepf period_s;
      let dt = kernel () in
      let stop =
        Mutex.protect s.m (fun () ->
            s.samples <- dt :: s.samples;
            s.stop)
      in
      if not stop then sample s
    in
    let s = { m = Mutex.create (); samples = []; stop = false } in
    (s, Thread.create sample s)

  (* Stop sampling; the scale for times (rates divide by it) and the
     sample count. *)
  let stop (s, thread) =
    Mutex.protect s.m (fun () -> s.stop <- true);
    Thread.join thread;
    (* a run shorter than one period still gets a sample *)
    let samples = if s.samples = [] then [ kernel () ] else s.samples in
    (nominal_kernel_s /. median samples, List.length samples)
end

(* --- peak memory -------------------------------------------------------- *)

(* [VmHWM] of a process in MiB, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' text)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Counters and gauges of the metrics registry by name; a histogram
   appears as its mean under [NAME_mean]. *)
let registry () =
  List.map
    (fun (name, v) ->
      match v with
      | Tvs_obs.Metrics.Counter_v n | Tvs_obs.Metrics.Gauge_v n -> (name, float_of_int n)
      | Tvs_obs.Metrics.Histogram_v { count; sum; _ } ->
          (name ^ "_mean", ratio (float_of_int sum) (float_of_int count)))
    (Tvs_obs.Metrics.snapshot ~all:true ())

(* --- span self times ---------------------------------------------------- *)

type span = { name : string; tid : int; ts : float; dur : float (* seconds *) }

let of_trace_span { Tvs_obs.Trace.name; tid; ts; dur; _ } = { name; tid; ts; dur }

(* Spans of a Chrome trace-event file written by [tvs --trace]. *)
let spans_of_trace_file path =
  let num = function Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> 0.0 in
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr events) ->
          List.map
            (fun e ->
              {
                name = (match Json.member "name" e with Some (Json.Str s) -> s | _ -> "?");
                tid = int_of_float (num (Json.member "tid" e));
                ts = num (Json.member "ts" e) /. 1e6;
                dur = num (Json.member "dur" e) /. 1e6;
              })
            events
      | _ -> failwith (path ^ ": no traceEvents array"))

(* A span's self time is its duration minus the part its child spans cover.
   Spans of one domain nest, so a stack walk in start order finds each
   span's parent. Returns self seconds per span name, and the time of the
   [faultsim.detected_matrix] spans directly under [engine.run] (candidate
   selection). *)
let self_times spans =
  let self = Hashtbl.create 16 in
  let add name v =
    Hashtbl.replace self name (v +. Option.value ~default:0.0 (Hashtbl.find_opt self name))
  in
  let select = ref 0.0 in
  let order a b = compare (a.tid, a.ts, -.a.dur) (b.tid, b.ts, -.b.dur) in
  let stack = ref [] in
  let close (s, child) = add s.name (s.dur -. !child) in
  let eps = 1e-9 in
  List.iter
    (fun s ->
      let rec pop () =
        match !stack with
        | (top, child) :: rest when top.tid <> s.tid || top.ts +. top.dur <= s.ts +. eps ->
            close (top, child);
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (parent, child) :: _ ->
          child := !child +. s.dur;
          if parent.name = "engine.run" && s.name = "faultsim.detected_matrix" then
            select := !select +. s.dur
      | [] -> ());
      stack := (s, ref 0.0) :: !stack)
    (List.sort order spans);
  List.iter close !stack;
  (self, !select)

(* --- results ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* Operations attempted and failed, with the reason for each failure. *)
type ops = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let fresh_ops () = { attempted = 0; failed = 0; problems = [] }

let fail ops fmt =
  Printf.ksprintf
    (fun m ->
      ops.failed <- ops.failed + 1;
      ops.problems <- m :: ops.problems)
    fmt

let success_rate ops = 1.0 -. ratio (float_of_int ops.failed) (float_of_int (max 1 ops.attempted))

(* [scale] is the workload's [Speed] scale, which [scaled] applies. *)
type outcome = { ops : ops; scale : float; end_to_end : metric list; per_layer : metric list }

(* A metric at the reference speed: times are multiplied by the scale,
   rates divided by it; counts and ratios are left alone. *)
let scaled scale m =
  match m.unit with
  | "s" | "ms" | "us" -> { m with value = m.value *. scale }
  | "1/s" -> { m with value = m.value /. scale }
  | _ -> m

let print_outcome ~workload ~trace o =
  let ops = o.ops in
  let correct = ops.failed = 0 && ops.attempted > 0 in
  List.iter (fun p -> Printf.eprintf "perfbench: %s: %s\n%!" workload p) (List.rev ops.problems);
  let shown = if trace then o.per_layer else o.end_to_end in
  Printf.printf "workload %s: %d attempted, %d failed, error_rate %.6f, correct %b\n" workload
    ops.attempted ops.failed
    (1.0 -. success_rate ops)
    correct;
  List.iter (fun m -> Printf.printf "  %-36s %16.6f %s\n" m.name m.value m.unit) shown;
  let metrics =
    List.map
      (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit) ]))
      shown
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int ops.attempted);
            ("failed", Json.Int ops.failed);
            ("metrics", Json.Obj metrics);
          ]));
  correct
