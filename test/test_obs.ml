(* The observability library: metric registration and shard merge, the
   jobs-invariance of the stable snapshot, histogram bucketing at the
   boundaries, trace JSON shape and nesting, and the report schema
   round-trip. *)

module Metrics = Tvs_obs.Metrics
module Trace = Tvs_obs.Trace
module Report = Tvs_obs.Report
module Json = Tvs_obs.Json
module Pool = Tvs_util.Pool
module Fault_sim = Tvs_fault.Fault_sim
module Fault_gen = Tvs_fault.Fault_gen
module Circuit = Tvs_netlist.Circuit
module Synth = Tvs_circuits.Synth
module Rng = Tvs_util.Rng

(* --- metrics ----------------------------------------------------------- *)

let test_registration () =
  let a = Metrics.counter "obs-test.reg" in
  let b = Metrics.counter "obs-test.reg" in
  Metrics.add a 3;
  Metrics.incr b;
  Alcotest.(check int) "re-registration returns the same handle" 4 (Metrics.counter_value a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Metrics: \"obs-test.reg\" is already registered as a counter (wanted a histogram)")
    (fun () -> ignore (Metrics.histogram "obs-test.reg"))

let test_gauge_max () =
  let g = Metrics.gauge "obs-test.gauge" in
  Metrics.observe_max g 7;
  Metrics.observe_max g 3;
  Alcotest.(check int) "gauge keeps the watermark" 7 (Metrics.gauge_value g)

(* Shards written by distinct pool domains merge to the arithmetic total. *)
let test_multi_domain_merge () =
  let c = Metrics.counter "obs-test.merge" in
  let pool = Pool.shared ~jobs:4 in
  let chunks = 64 in
  let out =
    Pool.parallel_map_chunks pool ~n:chunks (fun ~slot:_ i ->
        Metrics.add c (i + 1);
        i + 1)
  in
  let expect = Array.fold_left ( + ) 0 out in
  Alcotest.(check int) "sum over domains" expect (Metrics.counter_value c);
  Alcotest.(check int) "expected arithmetic total" (chunks * (chunks + 1) / 2) expect

let test_histogram_boundaries () =
  Alcotest.(check int) "0 -> bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "negative -> bucket 0" 0 (Metrics.bucket_of (-5));
  Alcotest.(check int) "1 -> bucket 1" 1 (Metrics.bucket_of 1);
  Alcotest.(check int) "2 -> bucket 2" 2 (Metrics.bucket_of 2);
  Alcotest.(check int) "3 -> bucket 2" 2 (Metrics.bucket_of 3);
  Alcotest.(check int) "4 -> bucket 3" 3 (Metrics.bucket_of 4);
  Alcotest.(check int) "max_int -> last bucket" (Metrics.num_buckets - 1)
    (Metrics.bucket_of max_int);
  let h = Metrics.histogram "obs-test.hist" in
  Metrics.observe h 0;
  Metrics.observe h 1;
  Metrics.observe h max_int;
  match List.assoc "obs-test.hist" (Metrics.snapshot ()) with
  | Metrics.Histogram_v { count; sum; buckets } ->
      Alcotest.(check int) "count" 3 count;
      (* 0 + 1 + max_int wraps to min_int: still deterministic. *)
      Alcotest.(check int) "sum wraps deterministically" (1 + max_int) sum;
      Alcotest.(check int) "bucket 0" 1 buckets.(0);
      Alcotest.(check int) "bucket 1" 1 buckets.(1);
      Alcotest.(check int) "last bucket" 1 buckets.(Metrics.num_buckets - 1)
  | Metrics.Counter_v _ | Metrics.Gauge_v _ -> Alcotest.fail "wrong kind in snapshot"

(* The headline determinism property: the stable snapshot after a pool
   fault-simulation workload is structurally identical at jobs=1 and jobs=4.
   s444's 763 collapsed faults span 13 chunks, enough for real fan-out. *)
let qcheck_snapshot_jobs_invariant =
  QCheck.Test.make ~name:"stable snapshot identical at jobs=1 and jobs=4" ~count:8
    QCheck.small_int (fun seed ->
      let c = Synth.generate_named "s444" in
      let faults = Fault_gen.collapsed c in
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let stimuli =
        Array.init 2 (fun _ ->
            ( Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng),
              Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) ))
      in
      let snap jobs =
        Metrics.reset ();
        let sim = Fault_sim.create ~jobs c in
        Array.iter
          (fun (pi, state) -> ignore (Fault_sim.detected_faults sim ~pi ~state faults))
          stimuli;
        Metrics.snapshot ()
      in
      let s1 = snap 1 and s4 = snap 4 in
      Metrics.reset ();
      s1 = s4)

(* --- trace ------------------------------------------------------------- *)

let test_trace_nesting () =
  Trace.reset ();
  Trace.start ();
  let v =
    Trace.with_span "outer" ~args:[ ("k", "v") ] (fun () ->
        let a = Trace.with_span "inner1" (fun () -> 1) in
        let b = Trace.with_span "inner2" (fun () -> 2) in
        a + b)
  in
  Trace.stop ();
  Alcotest.(check int) "body result passed through" 3 v;
  let spans = Trace.spans () in
  Alcotest.(check int) "three spans recorded" 3 (List.length spans);
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  let inners = List.filter (fun s -> s.Trace.depth = 1) spans in
  Alcotest.(check int) "outer at depth 0" 0 outer.Trace.depth;
  Alcotest.(check int) "two children at depth 1" 2 (List.length inners);
  Alcotest.(check bool) "outer args recorded" true (outer.Trace.args = [ ("k", "v") ]);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contained in outer" s.Trace.name)
        true
        (s.Trace.ts >= outer.Trace.ts
        && s.Trace.ts +. s.Trace.dur <= outer.Trace.ts +. outer.Trace.dur))
    inners;
  (* After stop, with_span is free and records nothing. *)
  ignore (Trace.with_span "after" (fun () -> ()));
  Alcotest.(check int) "no span recorded when disabled" 3 (List.length (Trace.spans ()));
  Trace.reset ()

let test_trace_export_json () =
  Trace.reset ();
  Trace.start ();
  Trace.with_span "parent" (fun () -> Trace.with_span "child" (fun () -> ()));
  Trace.stop ();
  let doc = Trace.export_json () in
  Trace.reset ();
  match Json.parse doc with
  | Error msg -> Alcotest.fail ("trace JSON does not parse: " ^ msg)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.Arr events) ->
          Alcotest.(check int) "one event per span" 2 (List.length events);
          List.iter
            (fun ev ->
              Alcotest.(check bool)
                "complete event" true
                (Json.member "ph" ev = Some (Json.Str "X"));
              match (Json.member "ts" ev, Json.member "dur" ev) with
              | Some (Json.Float _ | Json.Int _), Some (Json.Float _ | Json.Int _) -> ()
              | _ -> Alcotest.fail "event missing ts/dur")
            events
      | Some _ | None -> Alcotest.fail "no traceEvents array")

(* --- report ------------------------------------------------------------ *)

let sample_report () =
  Metrics.reset ();
  let c = Metrics.counter "obs-test.report.counter" in
  let h = Metrics.histogram "obs-test.report.hist" in
  let g = Metrics.gauge "obs-test.report.gauge" in
  Metrics.add c 41;
  Metrics.observe h 9;
  Metrics.observe_max g 5;
  Report.make ~scale:0.5 ~git_rev:"abc1234" ~jobs:4
    ~runs:
      [
        {
          Report.artifact = "table5";
          circuit = Some "s444";
          wall_ns = 1.5e9;
          benchmarks = [ { Report.name = "table5/parallel-faultsim"; ns_per_run = 123456.0 } ];
        };
      ]
    ~metrics:(Metrics.snapshot ()) ()

let test_report_roundtrip () =
  let r = sample_report () in
  let doc = Report.to_json r in
  (match Report.of_json doc with
  | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
  | Ok r' ->
      Alcotest.(check int) "version" Report.schema_version r'.Report.version;
      Alcotest.(check int) "jobs" 4 r'.Report.jobs;
      Alcotest.(check bool) "git rev" true (r'.Report.git_rev = Some "abc1234");
      Alcotest.(check bool) "runs survive" true (r'.Report.runs = r.Report.runs);
      Alcotest.(check bool) "metrics survive" true (r'.Report.metrics = r.Report.metrics);
      Alcotest.(check string) "re-serialization is stable" doc (Report.to_json r'));
  Alcotest.(check bool) "validator accepts" true (Report.validate doc = Ok ());
  Metrics.reset ()

let test_report_rejects () =
  let reject what doc =
    match Report.validate doc with
    | Ok () -> Alcotest.fail (what ^ ": accepted invalid report")
    | Error _ -> ()
  in
  reject "garbage" "not json at all";
  reject "wrong toplevel" "[1,2,3]";
  reject "missing fields" "{}";
  let good = Report.to_json (sample_report ()) in
  (* A future schema version must be rejected, not silently misread. *)
  let bumped =
    let sub = Printf.sprintf "\"schema_version\":%d" Report.schema_version in
    let len = String.length sub in
    let rec find i =
      if i + len > String.length good then Alcotest.fail "schema_version not in output"
      else if String.sub good i len = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub good 0 i ^ "\"schema_version\":99"
    ^ String.sub good (i + len) (String.length good - i - len)
  in
  reject "wrong schema version" bumped;
  Metrics.reset ()

(* --- json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 42);
        ("b", Json.Float 1.5);
        ("c", Json.Str "quo\"te\n\ttab");
        ("d", Json.Arr [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("e", Json.Obj [ ("nested", Json.Int (-7)) ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Error msg -> Alcotest.fail ("round trip failed: " ^ msg)
  | Ok parsed -> Alcotest.(check bool) "tree survives printing" true (parsed = doc)

let test_json_errors () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "tru" ]

let test_json_sort_keys () =
  let a = Json.Obj [ ("b", Json.Int 1); ("a", Json.Obj [ ("z", Json.Null); ("y", Json.Null) ]) ] in
  let b = Json.Obj [ ("a", Json.Obj [ ("y", Json.Null); ("z", Json.Null) ]); ("b", Json.Int 1) ] in
  Alcotest.(check bool) "canonical forms equal" true (Json.sort_keys a = Json.sort_keys b);
  Alcotest.(check bool) "raw forms differ" true (a <> b)

(* --- json parser against its per-byte predecessor ------------------------ *)

(* The parser as it was before [parse_string] copied each run of plain bytes
   in one step: one [peek] and one [Buffer.add_char] per byte. Kept as the
   reference for results, error messages and offsets. *)
module Reference_json = struct
  open Json

  exception Bad of string

  type cursor = { src : string; mutable pos : int }

  let error cur msg = raise (Bad (Printf.sprintf "%s at offset %d" msg cur.pos))

  let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

  let advance cur = cur.pos <- cur.pos + 1

  let skip_ws cur =
    let n = String.length cur.src in
    while
      cur.pos < n
      && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance cur
    done

  let expect cur c =
    match peek cur with
    | Some got when got = c -> advance cur
    | Some got -> error cur (Printf.sprintf "expected %C, found %C" c got)
    | None -> error cur (Printf.sprintf "expected %C, found end of input" c)

  let literal cur word value =
    let n = String.length word in
    if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
      cur.pos <- cur.pos + n;
      value
    end
    else error cur (Printf.sprintf "invalid literal (expected %s)" word)

  let parse_string cur =
    expect cur '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek cur with
      | None -> error cur "unterminated string"
      | Some '"' -> advance cur
      | Some '\\' -> (
          advance cur;
          match peek cur with
          | None -> error cur "unterminated escape"
          | Some c ->
              advance cur;
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if cur.pos + 4 > String.length cur.src then error cur "truncated \\u escape";
                  let hex = String.sub cur.src cur.pos 4 in
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> error cur "invalid \\u escape"
                  in
                  cur.pos <- cur.pos + 4;
                  (* Encode the code point as UTF-8; surrogate pairs are left
                     as two separate 3-byte encodings (the report and trace
                     emitters never produce them). *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
              | c -> error cur (Printf.sprintf "invalid escape \\%C" c));
              go ())
      | Some c ->
          advance cur;
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf

  let parse_number cur =
    let start = cur.pos in
    let n = String.length cur.src in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while cur.pos < n && is_num_char cur.src.[cur.pos] do
      advance cur
    done;
    let s = String.sub cur.src start (cur.pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) in
    match (integral, int_of_string_opt s, float_of_string_opt s) with
    | true, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _ -> error cur (Printf.sprintf "invalid number %S" s)

  let rec parse_value cur =
    skip_ws cur;
    match peek cur with
    | None -> error cur "unexpected end of input"
    | Some 'n' -> literal cur "null" Null
    | Some 't' -> literal cur "true" (Bool true)
    | Some 'f' -> literal cur "false" (Bool false)
    | Some '"' -> Str (parse_string cur)
    | Some '[' ->
        advance cur;
        skip_ws cur;
        if peek cur = Some ']' then begin
          advance cur;
          Arr []
        end
        else begin
          let items = ref [ parse_value cur ] in
          skip_ws cur;
          while peek cur = Some ',' do
            advance cur;
            items := parse_value cur :: !items;
            skip_ws cur
          done;
          expect cur ']';
          Arr (List.rev !items)
        end
    | Some '{' ->
        advance cur;
        skip_ws cur;
        if peek cur = Some '}' then begin
          advance cur;
          Obj []
        end
        else begin
          let pair () =
            skip_ws cur;
            let k = parse_string cur in
            skip_ws cur;
            expect cur ':';
            let v = parse_value cur in
            (k, v)
          in
          let members = ref [ pair () ] in
          skip_ws cur;
          while peek cur = Some ',' do
            advance cur;
            members := pair () :: !members;
            skip_ws cur
          done;
          expect cur '}';
          Obj (List.rev !members)
        end
    | Some ('-' | '0' .. '9') -> parse_number cur
    | Some c -> error cur (Printf.sprintf "unexpected character %C" c)

  let parse s =
    let cur = { src = s; pos = 0 } in
    match parse_value cur with
    | v ->
        skip_ws cur;
        if cur.pos <> String.length s then
          Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
        else Ok v
    | exception Bad msg -> Error msg
end

(* Bytes that take every path through a JSON string: plain letters, control
   bytes, quotes, backslashes, the letters of escapes and non-ASCII. *)
let json_byte =
  QCheck.Gen.(
    frequency
      [
        (4, char_range 'a' 'z');
        (2, char_range '\000' '\031');
        (2, oneofl [ '"'; '\\'; '/'; 'u'; 'n'; '0'; 'F'; '_'; ' ' ]);
        (2, char_range '\128' '\255');
      ])

let json_tree =
  let open QCheck.Gen in
  let str = string_size ~gen:json_byte (int_bound 12) in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int);
        (1, map (fun f -> Json.Float f) float);
        (5, map (fun s -> Json.Str s) str);
      ]
  in
  let rec value depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (value (depth - 1))));
          (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (value (depth - 1)))));
        ]
  in
  value 3

(* An edit of a printed document. Inserted snippets are escapes, good and
   bad, including [\u] escapes of every UTF-8 length. *)
type json_edit = Truncate of int | Replace of int * char | Insert of int * string

let json_edit =
  QCheck.Gen.(
    let pos = int_bound 4096 in
    frequency
      [
        (1, map (fun k -> Truncate k) pos);
        (2, map2 (fun k c -> Replace (k, c)) pos json_byte);
        ( 2,
          map2
            (fun k s -> Insert (k, s))
            pos
            (oneofl
               [
                 "\\u0041"; "\\u00e9"; "\\u4E2D"; "\\uD83D"; "\\u001f"; "\\u00"; "\\uZZZZ";
                 "\\u1_23"; "\\/"; "\\b"; "\\f"; "\\x"; "\\"; "\""; "\xc3\xa9";
               ]) );
      ])

let apply_json_edit text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Replace (_, _) when text = "" -> text
  | Replace (k, c) ->
      let b = Bytes.of_string text in
      Bytes.set b (k mod Bytes.length b) c;
      Bytes.to_string b
  | Insert (k, s) ->
      let k = k mod (String.length text + 1) in
      String.sub text 0 k ^ s ^ String.sub text k (String.length text - k)

let qcheck_json_parse_matches_reference =
  QCheck.Test.make ~name:"Json.parse equals the per-byte parser, errors and offsets included"
    ~count:3000
    (QCheck.make
       ~print:(fun (v, _) -> Json.to_string v)
       QCheck.Gen.(pair json_tree (list_size (int_range 1 3) json_edit)))
    (fun (v, edits) ->
      let printed = Json.to_string v in
      let texts =
        printed
        :: List.fold_left apply_json_edit printed edits
        :: List.map (apply_json_edit printed) edits
      in
      List.iter
        (fun text ->
          let got = Json.parse text and want = Reference_json.parse text in
          if compare got want <> 0 then
            QCheck.Test.fail_reportf "parsers differ on %S:\n got  %s\n want %s" text
              (match got with Ok j -> Json.to_string j | Error m -> "error: " ^ m)
              (match want with Ok j -> Json.to_string j | Error m -> "error: " ^ m))
        texts;
      true)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registration is idempotent, kinds checked" `Quick test_registration;
          Alcotest.test_case "gauge merges by maximum" `Quick test_gauge_max;
          Alcotest.test_case "shards merge across pool domains" `Quick test_multi_domain_merge;
          Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_boundaries;
          QCheck_alcotest.to_alcotest qcheck_snapshot_jobs_invariant;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans nest and args survive" `Quick test_trace_nesting;
          Alcotest.test_case "export is well-formed trace-event JSON" `Quick
            test_trace_export_json;
        ] );
      ( "report",
        [
          Alcotest.test_case "to_json/of_json round trip" `Quick test_report_roundtrip;
          Alcotest.test_case "validator rejects malformed input" `Quick test_report_rejects;
        ] );
      ( "json",
        [
          Alcotest.test_case "print/parse round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed documents rejected" `Quick test_json_errors;
          Alcotest.test_case "sort_keys canonicalizes" `Quick test_json_sort_keys;
          QCheck_alcotest.to_alcotest qcheck_json_parse_matches_reference;
        ] );
    ]
