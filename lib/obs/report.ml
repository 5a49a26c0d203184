let schema_version = 3

type bench = { name : string; ns_per_run : float }

type run = {
  artifact : string;
  circuit : string option;
  wall_ns : float;
  benchmarks : bench list;
}

type tpi_entry = {
  tpi_circuit : string;
  points : int;
  converted_faults : int;
  caught : int;
  d_coverage : float;
  dm : float;
  dt : float;
}

type cec_entry = {
  cec_circuit : string;
  transform : string;
  verdict : string;
  points : int;
  sat_calls : int;
  decisions : int;
}

let verdict_vocabulary = [ "equivalent"; "inequivalent"; "unknown" ]

type t = {
  version : int;
  scale : float option;
  jobs : int;
  git_rev : string option;
  runs : run list;
  tpi : tpi_entry list;
  cec : cec_entry list;
  metrics : Metrics.snapshot;
}

let make ?scale ?git_rev ?(tpi = []) ?(cec = []) ~jobs ~runs ~metrics () =
  { version = schema_version; scale; jobs; git_rev; runs; tpi; cec; metrics }

(* --- JSON emission ---------------------------------------------------- *)

let opt f = function None -> Json.Null | Some v -> f v

let metric_to_json = function
  | Metrics.Counter_v n -> Json.Obj [ ("kind", Json.Str "counter"); ("value", Json.Int n) ]
  | Metrics.Gauge_v n -> Json.Obj [ ("kind", Json.Str "gauge"); ("value", Json.Int n) ]
  | Metrics.Histogram_v { count; sum; buckets } ->
      (* Sparse bucket encoding: [[bucket, count], ...] for populated ones. *)
      let cells = ref [] in
      Array.iteri
        (fun i b -> if b > 0 then cells := Json.Arr [ Json.Int i; Json.Int b ] :: !cells)
        buckets;
      Json.Obj
        [
          ("kind", Json.Str "histogram");
          ("count", Json.Int count);
          ("sum", Json.Int sum);
          ("buckets", Json.Arr (List.rev !cells));
        ]

let to_json t =
  let run_to_json r =
    Json.Obj
      [
        ("artifact", Json.Str r.artifact);
        ("circuit", opt (fun c -> Json.Str c) r.circuit);
        ("wall_ns", Json.Float r.wall_ns);
        ( "benchmarks",
          Json.Arr
            (List.map
               (fun b ->
                 Json.Obj
                   [ ("name", Json.Str b.name); ("ns_per_run", Json.Float b.ns_per_run) ])
               r.benchmarks) );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Int t.version);
         ("tool", Json.Str "tvs-bench");
         ("scale", opt (fun s -> Json.Float s) t.scale);
         ("jobs", Json.Int t.jobs);
         ("git_rev", opt (fun r -> Json.Str r) t.git_rev);
         ("runs", Json.Arr (List.map run_to_json t.runs));
         ( "tpi",
           Json.Arr
             (List.map
                (fun e ->
                  Json.Obj
                    [
                      ("circuit", Json.Str e.tpi_circuit);
                      ("points", Json.Int e.points);
                      ("converted_faults", Json.Int e.converted_faults);
                      ("caught", Json.Int e.caught);
                      ("d_coverage", Json.Float e.d_coverage);
                      ("dm", Json.Float e.dm);
                      ("dt", Json.Float e.dt);
                    ])
                t.tpi) );
         ( "cec",
           Json.Arr
             (List.map
                (fun e ->
                  Json.Obj
                    [
                      ("circuit", Json.Str e.cec_circuit);
                      ("transform", Json.Str e.transform);
                      ("verdict", Json.Str e.verdict);
                      ("points", Json.Int e.points);
                      ("sat_calls", Json.Int e.sat_calls);
                      ("decisions", Json.Int e.decisions);
                    ])
                t.cec) );
         ("metrics", Json.Obj (List.map (fun (k, v) -> (k, metric_to_json v)) t.metrics));
       ])

(* --- parsing / validation --------------------------------------------- *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Invalid msg)) fmt

let get field v =
  match Json.member field v with
  | Some m -> m
  | None -> fail "missing field %S" field

let as_int field = function
  | Json.Int i -> i
  | _ -> fail "field %S must be an integer" field

let as_number field = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "field %S must be a number" field

let as_string field = function
  | Json.Str s -> s
  | _ -> fail "field %S must be a string" field

let as_opt f field = function Json.Null -> None | v -> Some (f field v)

let as_list field = function
  | Json.Arr items -> items
  | _ -> fail "field %S must be an array" field

let as_obj field = function
  | Json.Obj members -> members
  | _ -> fail "field %S must be an object" field

let metric_of_json name v =
  match as_string "kind" (get "kind" v) with
  | "counter" -> Metrics.Counter_v (as_int "value" (get "value" v))
  | "gauge" -> Metrics.Gauge_v (as_int "value" (get "value" v))
  | "histogram" ->
      let buckets = Array.make Metrics.num_buckets 0 in
      List.iter
        (function
          | Json.Arr [ Json.Int i; Json.Int n ] ->
              if i < 0 || i >= Metrics.num_buckets then
                fail "metric %S: bucket index %d out of range" name i;
              buckets.(i) <- n
          | _ -> fail "metric %S: buckets must be [index, count] pairs" name)
        (as_list "buckets" (get "buckets" v));
      Metrics.Histogram_v
        { count = as_int "count" (get "count" v); sum = as_int "sum" (get "sum" v); buckets }
  | k -> fail "metric %S has unknown kind %S" name k

let run_of_json v =
  {
    artifact = as_string "artifact" (get "artifact" v);
    circuit = as_opt as_string "circuit" (get "circuit" v);
    wall_ns = as_number "wall_ns" (get "wall_ns" v);
    benchmarks =
      List.map
        (fun b ->
          {
            name = as_string "name" (get "name" b);
            ns_per_run = as_number "ns_per_run" (get "ns_per_run" b);
          })
        (as_list "benchmarks" (get "benchmarks" v));
  }

let of_json s =
  match Json.parse s with
  | Error msg -> Error ("not valid JSON: " ^ msg)
  | Ok v -> (
      try
        let version = as_int "schema_version" (get "schema_version" v) in
        if version <> schema_version then
          fail "schema_version %d unsupported (expected %d)" version schema_version;
        (match as_string "tool" (get "tool" v) with
        | "tvs-bench" -> ()
        | t -> fail "tool %S unsupported" t);
        Ok
          {
            version;
            scale = as_opt as_number "scale" (get "scale" v);
            jobs = as_int "jobs" (get "jobs" v);
            git_rev = as_opt as_string "git_rev" (get "git_rev" v);
            runs = List.map run_of_json (as_list "runs" (get "runs" v));
            tpi =
              List.map
                (fun e ->
                  let caught = as_int "caught" (get "caught" e) in
                  let converted_faults = as_int "converted_faults" (get "converted_faults" e) in
                  if caught < 0 || converted_faults < 0 || caught > converted_faults then
                    fail "tpi entry: caught %d out of range (converted_faults %d)" caught
                      converted_faults;
                  {
                    tpi_circuit = as_string "circuit" (get "circuit" e);
                    points = as_int "points" (get "points" e);
                    converted_faults;
                    caught;
                    d_coverage = as_number "d_coverage" (get "d_coverage" e);
                    dm = as_number "dm" (get "dm" e);
                    dt = as_number "dt" (get "dt" e);
                  })
                (as_list "tpi" (get "tpi" v));
            cec =
              List.map
                (fun e ->
                  let verdict = as_string "verdict" (get "verdict" e) in
                  if not (List.mem verdict verdict_vocabulary) then
                    fail "cec entry: unknown verdict %S (expected %s)" verdict
                      (String.concat "/" verdict_vocabulary);
                  let non_negative field =
                    let n = as_int field (get field e) in
                    if n < 0 then fail "cec entry: %S must be non-negative, got %d" field n;
                    n
                  in
                  {
                    cec_circuit = as_string "circuit" (get "circuit" e);
                    transform = as_string "transform" (get "transform" e);
                    verdict;
                    points = non_negative "points";
                    sat_calls = non_negative "sat_calls";
                    decisions = non_negative "decisions";
                  })
                (as_list "cec" (get "cec" v));
            metrics =
              List.map (fun (k, m) -> (k, metric_of_json k m)) (as_obj "metrics" (get "metrics" v));
          }
      with Invalid msg -> Error msg)

let validate s = Result.map (fun (_ : t) -> ()) (of_json s)

(* --- ASCII view ------------------------------------------------------- *)

let to_table t =
  let tbl = Tvs_util.Table.create [ "artifact"; "benchmark"; "ns/run"; "wall" ] in
  List.iter
    (fun r ->
      Tvs_util.Table.add_row tbl
        [ r.artifact; ""; ""; Printf.sprintf "%.2fs" (r.wall_ns /. 1e9) ];
      List.iter
        (fun b ->
          Tvs_util.Table.add_row tbl [ ""; b.name; Printf.sprintf "%.0f" b.ns_per_run; "" ])
        r.benchmarks)
    t.runs;
  let tpi_lines =
    String.concat ""
      (List.map
         (fun e ->
           Printf.sprintf "tpi %s: %d point(s), %d/%d converted fault(s) caught, dm=%+.2f dt=%+.2f\n"
             e.tpi_circuit e.points e.caught e.converted_faults e.dm e.dt)
         t.tpi)
  in
  let cec_lines =
    String.concat ""
      (List.map
         (fun e ->
           Printf.sprintf "cec %s (%s): %s — %d point(s), %d sat call(s), %d decision(s)\n"
             e.cec_circuit e.transform e.verdict e.points e.sat_calls e.decisions)
         t.cec)
  in
  Printf.sprintf "bench report v%d: jobs=%d scale=%s rev=%s\n%s%s%s%d stable metric(s) captured\n"
    t.version t.jobs
    (match t.scale with Some s -> Printf.sprintf "%g" s | None -> "default")
    (Option.value ~default:"unknown" t.git_rev)
    (Tvs_util.Table.render tbl)
    tpi_lines cec_lines
    (List.length t.metrics)

(* --- provenance ------------------------------------------------------- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some rev when rev <> "" -> Some rev
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None
