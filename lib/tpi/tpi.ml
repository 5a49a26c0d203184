module Circuit = Tvs_netlist.Circuit
module Cube = Tvs_atpg.Cube
module Fault = Tvs_fault.Fault
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine
module Scan_lint = Tvs_lint.Scan_lint
module Prep = Tvs_harness.Prep
module Experiments = Tvs_harness.Experiments
module Pool = Tvs_util.Pool
module Table = Tvs_util.Table
module Wire = Tvs_util.Wire
module Json = Tvs_obs.Json
module Metrics = Tvs_obs.Metrics
module Trace = Tvs_obs.Trace
module Store_digest = Tvs_store.Digest
module Cache = Tvs_store.Cache
module SS = Set.Make (String)

let schema_version = 1
let study_kind = "TPIS"

(* The experiment label every flow of a study runs under: it seeds the
   engine RNG through [Prep.engine_seed], and together with the modified
   circuit's digest it keys the per-evaluation EXPR cache rows. *)
let label = "tpi"

let m_studies = Metrics.counter "tpi.studies"
let m_evaluations = Metrics.counter "tpi.evaluations"
let m_selected = Metrics.counter "tpi.points.selected"
let m_conversions = Metrics.counter "tpi.conversions"

type options = {
  points : int;
  budget : int;
  shift : int option;
  po_taps : bool;
  controls : bool;
}

let default_options = { points = 2; budget = 8; shift = None; po_taps = false; controls = false }

type point = {
  candidate : Candidate.t;
  conversions : int;
  summary : Experiments.run_summary;
  d_coverage : float;
  dm : float;
  dt : float;
}

type result = {
  circuit : string;
  chain_len : int;
  shift : int;
  candidates : int;
  base : Experiments.run_summary;
  points : point list;
  converted : string list;
  caught : int;
  converted_faults : int;
  cached : bool;
}

let final_summary r =
  match List.rev r.points with [] -> r.base | p :: _ -> p.summary

(* Union of every position's exclusive support, by net name — the set of
   nets statically guaranteed to hide faults under this emitted window. *)
let exclusive_union c ~s =
  Array.fold_left
    (fun acc nets ->
      List.fold_left (fun acc n -> SS.add (Circuit.net_name c n) acc) acc nets)
    SS.empty (Scan_lint.exclusive_nets ~s c)

(* One candidate evaluation: insert [selected @ [cand]], recompute the
   exclusive union at the matched emitted window s + k (k = observe cells
   inserted, so the original emitted cells stay emitted and every observe
   cell is emitted — the DESIGN §13 measurement contract), and run the full
   stitched flow on the modified circuit. [run_flow] memoizes per modified
   circuit digest when a cache is installed. *)
let evaluate c ~s ~selected ~prev_excl (cand : Candidate.t) =
  let trial = selected @ [ cand ] in
  let c' = Transform.apply c trial in
  let excl' = exclusive_union c' ~s:(s + Transform.observe_cells trial) in
  let conv = SS.cardinal (SS.diff prev_excl excl') in
  let summary = Experiments.run_flow ~label (Prep.of_circuit c') in
  (cand, conv, excl', summary)

(* Lexicographic argmax over one round's evaluations: conversions first,
   then coverage, then test time and memory, then the mined rank (array
   order). Evaluations arrive in candidate-array order from the pool, so
   the winner is identical at every [--jobs]. *)
let better (_, conv_a, _, (sa : Experiments.run_summary))
    (_, conv_b, _, (sb : Experiments.run_summary)) =
  if conv_a <> conv_b then conv_a > conv_b
  else if sa.coverage <> sb.coverage then sa.coverage > sb.coverage
  else if sa.t <> sb.t then sa.t < sb.t
  else if sa.m <> sb.m then sa.m < sb.m
  else false

(* Dynamic confirmation of the static conversions: rerun the engine on the
   final modified circuit (the same config, label and RNG stream the
   evaluation flows used, so this is the exact test set the final summary
   describes) and replay its stimuli through a fresh Cycle machine carrying
   only the converted nets' stem faults. *)
let dynamic_caught c selected converted =
  let c' = Transform.apply c selected in
  let prep = Prep.of_circuit c' in
  let r = Experiments.run_engine ~label prep in
  let faults =
    Array.of_list
      (List.concat_map
         (fun nm ->
           let n = Circuit.find_net c' nm in
           [ Fault.stem_fault n false; Fault.stem_fault n true ])
         converted)
  in
  let machine = Cycle.create ~scheme:(Experiments.config_for prep).Engine.scheme c' ~faults in
  List.iter (fun (pi, fresh) -> ignore (Cycle.step machine ~pi ~fresh)) r.Engine.stimuli;
  List.iter
    (fun (v : Cube.vector) -> ignore (Cycle.step machine ~pi:v.Cube.pi ~fresh:v.Cube.scan))
    r.Engine.extra_stimuli;
  ignore (Cycle.flush machine ~full:true);
  Cycle.num_caught machine

let run_study (options : options) c =
  let chain_len = Circuit.num_flops c in
  if chain_len = 0 then
    raise (Circuit.Build_error "test-point insertion needs flip-flops");
  let s =
    match options.shift with
    | Some s -> max 1 (min s chain_len)
    | None -> Scan_lint.default_shift c
  in
  (* Force the base circuit's lazy topo cache before worker domains share
     it read-only inside [Transform.apply]. *)
  ignore (Circuit.topo_order c);
  let mined =
    Candidate.mine ~shift:s ~po_taps:options.po_taps ~controls:options.controls
      ~limit:(max 1 options.budget) c
  in
  let base = Experiments.run_flow ~label (Prep.of_circuit c) in
  let e0 = exclusive_union c ~s in
  let pool = Pool.shared ~jobs:(Pool.default_jobs ()) in
  let rec rounds n selected points prev_excl prev_summary remaining =
    if n = 0 || remaining = [] then List.rev points
    else begin
      let arr = Array.of_list remaining in
      let evals =
        Pool.parallel_map_chunks pool ~n:(Array.length arr) (fun ~slot:_ i ->
            evaluate c ~s ~selected ~prev_excl arr.(i))
      in
      Array.iter (fun _ -> Metrics.incr m_evaluations) evals;
      let best = ref 0 in
      Array.iteri (fun i e -> if i > 0 && better e evals.(!best) then best := i) evals;
      let cand, conv, excl', summary = evals.(!best) in
      Metrics.incr m_selected;
      let point =
        {
          candidate = cand;
          conversions = 2 * conv;
          summary;
          d_coverage = summary.Experiments.coverage -. prev_summary.Experiments.coverage;
          dm = summary.Experiments.m -. prev_summary.Experiments.m;
          dt = summary.Experiments.t -. prev_summary.Experiments.t;
        }
      in
      rounds (n - 1) (selected @ [ cand ]) (point :: points) excl' summary
        (List.filter (fun x -> not (Candidate.same_target x cand)) remaining)
    end
  in
  let points = rounds (max 0 options.points) [] [] e0 base mined in
  let selected = List.map (fun p -> p.candidate) points in
  let final_excl =
    match selected with
    | [] -> e0
    | _ ->
        exclusive_union (Transform.apply c selected)
          ~s:(s + Transform.observe_cells selected)
  in
  let converted = SS.elements (SS.diff e0 final_excl) in
  List.iter (fun _ -> Metrics.incr m_conversions) converted;
  let caught =
    match (selected, converted) with
    | [], _ | _, [] -> 0
    | _ -> dynamic_caught c selected converted
  in
  {
    circuit = Circuit.name c;
    chain_len;
    shift = s;
    candidates = List.length mined;
    base;
    points;
    converted;
    caught;
    converted_faults = 2 * List.length converted;
    cached = false;
  }

(* ---------- wire form (result cache) ---------- *)

let encode_options w (o : options) =
  Wire.write_varint w o.points;
  Wire.write_varint w o.budget;
  Wire.write_option (fun w s -> Wire.write_varint w s) w o.shift;
  Wire.write_bool w o.po_taps;
  Wire.write_bool w o.controls

let encode_kind w k = Wire.write_u8 w (Candidate.kind_rank k)

let decode_kind r =
  match Wire.read_u8 r with
  | 0 -> Candidate.Observe_cell
  | 1 -> Candidate.Observe_po
  | 2 -> Candidate.Control_one
  | 3 -> Candidate.Control_zero
  | n -> raise (Wire.Error (Printf.sprintf "unknown test-point kind %d" n))

let encode_candidate w (c : Candidate.t) =
  encode_kind w c.kind;
  Wire.write_string w c.net;
  Wire.write_varint w c.score;
  Wire.write_varint w c.hits;
  Wire.write_varint w c.dmem;
  Wire.write_varint w c.dtime

let decode_candidate r : Candidate.t =
  let kind = decode_kind r in
  let net = Wire.read_string r in
  let score = Wire.read_varint r in
  let hits = Wire.read_varint r in
  let dmem = Wire.read_varint r in
  let dtime = Wire.read_varint r in
  { kind; net; score; hits; dmem; dtime }

let encode_point w p =
  encode_candidate w p.candidate;
  Wire.write_varint w p.conversions;
  Experiments.write_summary w p.summary;
  Wire.write_f64 w p.d_coverage;
  Wire.write_f64 w p.dm;
  Wire.write_f64 w p.dt

let decode_point r =
  let candidate = decode_candidate r in
  let conversions = Wire.read_varint r in
  let summary = Experiments.read_summary r in
  let d_coverage = Wire.read_f64 r in
  let dm = Wire.read_f64 r in
  let dt = Wire.read_f64 r in
  { candidate; conversions; summary; d_coverage; dm; dt }

let encode_result w r =
  Wire.write_string w r.circuit;
  Wire.write_varint w r.chain_len;
  Wire.write_varint w r.shift;
  Wire.write_varint w r.candidates;
  Experiments.write_summary w r.base;
  Wire.write_list encode_point w r.points;
  Wire.write_list Wire.write_string w r.converted;
  Wire.write_varint w r.caught;
  Wire.write_varint w r.converted_faults

let decode_result rd =
  let circuit = Wire.read_string rd in
  let chain_len = Wire.read_varint rd in
  let shift = Wire.read_varint rd in
  let candidates = Wire.read_varint rd in
  let base = Experiments.read_summary rd in
  let points = Wire.read_list decode_point rd in
  let converted = Wire.read_list Wire.read_string rd in
  let caught = Wire.read_varint rd in
  let converted_faults = Wire.read_varint rd in
  {
    circuit;
    chain_len;
    shift;
    candidates;
    base;
    points;
    converted;
    caught;
    converted_faults;
    cached = false;
  }

let study_key ?(options = default_options) c =
  Store_digest.combine (Store_digest.circuit c)
    (Store_digest.of_encoding (fun w ->
         Wire.write_varint w schema_version;
         Wire.write_string w label;
         encode_options w options))

let run ?(options = default_options) c =
  Trace.with_span "tpi" ~args:[ ("circuit", Circuit.name c) ] @@ fun () ->
  Metrics.incr m_studies;
  let r, cached =
    Cache.memo ~kind:study_kind ~key:(fun () -> study_key ~options c) encode_result decode_result
      (fun () -> run_study options c)
  in
  { r with cached }

(* ---------- rendering ---------- *)

let summary_line tag (s : Experiments.run_summary) =
  Printf.sprintf "%s: TV=%d extra=%d m=%.2f t=%.2f coverage=%.4f peak hidden=%d" tag s.tv s.ex
    s.m s.t s.coverage s.peak_hidden

let to_ascii r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "tpi %s: chain %d, mining shift %d, %d candidate(s), %d point(s) selected\n"
       r.circuit r.chain_len r.shift r.candidates (List.length r.points));
  Buffer.add_string b (summary_line "base " r.base ^ "\n");
  if r.points <> [] then begin
    let t =
      Table.create [ "#"; "point"; "net"; "score"; "conv"; "cov"; "dcov"; "m"; "dm"; "t"; "dt" ]
    in
    List.iteri
      (fun i p ->
        Table.add_row t
          [
            string_of_int (i + 1);
            Candidate.kind_name p.candidate.Candidate.kind;
            p.candidate.Candidate.net;
            string_of_int p.candidate.Candidate.score;
            string_of_int p.conversions;
            Printf.sprintf "%.4f" p.summary.Experiments.coverage;
            Printf.sprintf "%+.4f" p.d_coverage;
            Printf.sprintf "%.2f" p.summary.Experiments.m;
            Printf.sprintf "%+.2f" p.dm;
            Printf.sprintf "%.2f" p.summary.Experiments.t;
            Printf.sprintf "%+.2f" p.dt;
          ])
      r.points;
    Buffer.add_string b (Table.render t);
    Buffer.add_string b (summary_line "final" (final_summary r) ^ "\n")
  end;
  (match r.converted with
  | [] -> Buffer.add_string b "hidden->caught: no statically hidden net converted\n"
  | nets ->
      Buffer.add_string b
        (Printf.sprintf "hidden->caught: %d/%d converted stem fault(s) caught across %d net(s): %s\n"
           r.caught r.converted_faults (List.length nets) (String.concat ", " nets)));
  Buffer.contents b

let summary_json (s : Experiments.run_summary) =
  Json.Obj
    [
      ("atv", Json.Int s.atv);
      ("tv", Json.Int s.tv);
      ("extra", Json.Int s.ex);
      ("m", Json.Float s.m);
      ("t", Json.Float s.t);
      ("coverage", Json.Float s.coverage);
      ("peak_hidden", Json.Int s.peak_hidden);
    ]

let point_json p =
  Json.Obj
    [
      ("kind", Json.Str (Candidate.kind_name p.candidate.Candidate.kind));
      ("net", Json.Str p.candidate.Candidate.net);
      ("score", Json.Int p.candidate.Candidate.score);
      ("hits", Json.Int p.candidate.Candidate.hits);
      ("dmem", Json.Int p.candidate.Candidate.dmem);
      ("dtime", Json.Int p.candidate.Candidate.dtime);
      ("conversions", Json.Int p.conversions);
      ("summary", summary_json p.summary);
      ("d_coverage", Json.Float p.d_coverage);
      ("dm", Json.Float p.dm);
      ("dt", Json.Float p.dt);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.Int schema_version);
      ("circuit", Json.Str r.circuit);
      ("chain_len", Json.Int r.chain_len);
      ("shift", Json.Int r.shift);
      ("candidates", Json.Int r.candidates);
      ("base", summary_json r.base);
      ("points", Json.Arr (List.map point_json r.points));
      ("final", summary_json (final_summary r));
      ("converted", Json.Arr (List.map (fun n -> Json.Str n) r.converted));
      ("caught", Json.Int r.caught);
      ("converted_faults", Json.Int r.converted_faults);
    ]

let to_json_string r = Json.to_string (to_json r)
