module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Cube = Tvs_atpg.Cube
module Podem = Tvs_atpg.Podem
module Generator = Tvs_atpg.Generator
module Chain = Tvs_scan.Chain
module Cost = Tvs_scan.Cost
module Xor_scheme = Tvs_scan.Xor_scheme
module Baseline = Tvs_core.Baseline
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine
module Info_ratio = Tvs_core.Info_ratio
module Policy = Tvs_core.Policy
module Fig1 = Tvs_circuits.Fig1
module Table = Tvs_util.Table
module Rng = Tvs_util.Rng
module Wire = Tvs_util.Wire
module Store_digest = Tvs_store.Digest
module Cache = Tvs_store.Cache
module Checkpoint = Tvs_store.Checkpoint

type run_summary = {
  atv : int;
  tv : int;
  ex : int;
  m : float;
  t : float;
  coverage : float;
  peak_hidden : int;
}

(* --- content-addressed result cache -------------------------------------

   [lint_report], [run_flow] and [baseline_detection] memoize through the
   installed cache ([Cache.memo]). Keys are content digests of the inputs
   that determine the result — circuit structure plus engine configuration
   plus the label that seeds the RNG — so a changed netlist or option can
   never replay a stale row, while [--jobs] (results are invariant to it)
   and the host are free to differ between the writing and the reading
   run. *)

(* A run's engine configuration reads only the circuit's scan chain length,
   so its key comes from the circuit alone: a cache hit needs no [Prep]. *)
let config_of ?scheme ?shift ?selection ?preflight circuit =
  let base = Engine.default_config ~chain_len:(Circuit.num_flops circuit) in
  {
    base with
    Engine.scheme = Option.value ~default:base.Engine.scheme scheme;
    shift = Option.value ~default:base.Engine.shift shift;
    selection = Option.value ~default:base.Engine.selection selection;
    preflight = Option.value ~default:base.Engine.preflight preflight;
  }

let config_for ?scheme ?shift ?selection ?preflight (prep : Prep.t) =
  config_of ?scheme ?shift ?selection ?preflight prep.circuit

let run_key ?scheme ?shift ?selection ~label circuit =
  Store_digest.combine (Store_digest.circuit circuit)
    (Store_digest.config ~config:(config_of ?scheme ?shift ?selection circuit) ~label)

let summary_kind = "EXPR"

(* The one-shot CLI's [stitch]/[resume] summary block, built here so the
   serve daemon's responses are byte-identical to the CLI's stdout by
   construction (CI diffs exactly that). *)
let render_summary ~circuit ~scheme ~selection (r : run_summary) =
  let b = Buffer.create 256 in
  Printf.bprintf b "circuit     : %s\n" circuit;
  Printf.bprintf b "scheme      : %s\n" (Xor_scheme.to_string scheme);
  Printf.bprintf b "selection   : %s\n" (Policy.describe_selection selection);
  Printf.bprintf b "aTV         : %d\n" r.atv;
  Printf.bprintf b "TV          : %d\n" r.tv;
  Printf.bprintf b "extra       : %d\n" r.ex;
  Printf.bprintf b "peak hidden : %d\n" r.peak_hidden;
  Printf.bprintf b "m (memory)  : %.2f\n" r.m;
  Printf.bprintf b "t (time)    : %.2f\n" r.t;
  Printf.bprintf b "coverage    : %.4f\n" r.coverage;
  Buffer.contents b

let write_summary w s =
  Wire.write_varint w s.atv;
  Wire.write_varint w s.tv;
  Wire.write_varint w s.ex;
  Wire.write_f64 w s.m;
  Wire.write_f64 w s.t;
  Wire.write_f64 w s.coverage;
  Wire.write_varint w s.peak_hidden

let read_summary r =
  let atv = Wire.read_varint r in
  let tv = Wire.read_varint r in
  let ex = Wire.read_varint r in
  let m = Wire.read_f64 r in
  let t = Wire.read_f64 r in
  let coverage = Wire.read_f64 r in
  let peak_hidden = Wire.read_varint r in
  { atv; tv; ex; m; t; coverage; peak_hidden }

(* Lint reports are cached like experiment summaries. The key digests the
   circuit, the lint schema version, the options, and the source line table:
   two digest-equal circuits can come from differently formatted .bench
   files whose diagnostics cite different lines. *)
let lint_kind = "LINT"

let lint_report ?options ?lines c =
  let key () =
    let opts = Option.value ~default:Tvs_lint.Lint.default_options options in
    Store_digest.combine (Store_digest.circuit c)
      (Store_digest.of_encoding (fun w ->
           Wire.write_varint w Tvs_lint.Lint.schema_version;
           Tvs_lint.Lint.encode_options w opts;
           let entries =
             match lines with
             | None -> []
             | Some tbl -> List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
           in
           Wire.write_list
             (fun w (k, v) ->
               Wire.write_string w k;
               Wire.write_varint w v)
             w entries))
  in
  fst
    (Cache.memo ~kind:lint_kind ~key Tvs_lint.Lint.encode_report Tvs_lint.Lint.decode_report
       (fun () -> Tvs_lint.Lint.run ?options ?lines c))

(* The one engine call of a stitched run: [config_for] the options, an RNG
   seeded by the circuit name and [label], and the baseline vectors as the
   extra phase's fallback. *)
let run_engine ?scheme ?shift ?selection ?preflight ?resume ?checkpoint ~label (prep : Prep.t) =
  Engine.run
    ~config:(config_for ?scheme ?shift ?selection ?preflight prep)
    ~fallback:prep.baseline.Baseline.vectors ?resume ?checkpoint
    ~rng:(Prep.engine_seed prep label) prep.ctx ~faults:prep.testable

(* A stitched run computed: the engine on [prep], summarized. *)
let flow ?scheme ?shift ?selection ?preflight ?resume ?checkpoint ~label (prep : Prep.t) =
  let r = run_engine ?scheme ?shift ?selection ?preflight ?resume ?checkpoint ~label prep in
  let ratios = Cost.ratios r.Engine.schedule ~baseline_nvec:prep.baseline.Baseline.num_vectors in
  {
    atv = prep.baseline.Baseline.num_vectors;
    tv = r.Engine.stitched_vectors;
    ex = r.Engine.extra_vectors;
    m = ratios.Cost.m;
    t = ratios.Cost.t;
    coverage = Engine.coverage r;
    peak_hidden = r.Engine.peak_hidden;
  }

(* The one cached stitched run behind [run_flow] and [stitch]: one
   [Cache.memo] call whether the run starts fresh, checkpoints or resumes.
   A resumed run's summary equals the uninterrupted run's, and a run the
   cache answers never reaches [compute], so it has nothing to snapshot. *)
let memo_flow ~label circuit ~key compute =
  Tvs_obs.Trace.with_span "flow" ~args:[ ("circuit", Circuit.name circuit); ("label", label) ]
  @@ fun () -> Cache.memo ~kind:summary_kind ~key write_summary read_summary compute

let run_flow ?scheme ?shift ?selection ?preflight ?checkpoint ~label (prep : Prep.t) =
  fst
    (memo_flow ~label prep.circuit
       ~key:(fun () -> run_key ?scheme ?shift ?selection ~label prep.circuit)
       (fun () -> flow ?scheme ?shift ?selection ?preflight ?checkpoint ~label prep))

(* A stitched run is identified by its circuit: one circuit digest keys the
   cache entry, the checkpoint and the preparation memo, and only a miss
   prepares the circuit. *)
let stitch ~spec ~scale ~scheme ~selection ~shift ~label ?preflight ?resume ?(save = fun _ -> None)
    circuit =
  let shift_policy = Option.map (fun s -> Policy.Fixed s) shift in
  let circuit_digest = Store_digest.circuit circuit in
  let config_digest =
    Store_digest.config ~config:(config_of ~scheme ?shift:shift_policy ~selection circuit) ~label
  in
  let record snapshot =
    {
      Checkpoint.spec;
      scale;
      scheme;
      selection;
      shift;
      label;
      circuit_digest;
      config_digest;
      snapshot;
    }
  in
  let mismatch (ck : Checkpoint.t) =
    if not (Store_digest.equal circuit_digest ck.circuit_digest) then
      Some
        (Printf.sprintf
           "circuit digest mismatch: %S no longer builds the circuit it was checkpointed on"
           ck.spec)
    else if not (Store_digest.equal config_digest ck.config_digest) then
      Some "configuration digest mismatch: written by a build with different engine options"
    else None
  in
  match Option.bind resume mismatch with
  | Some msg -> Error msg
  | None ->
      Ok
        (memo_flow ~label circuit
           ~key:(fun () -> Store_digest.combine circuit_digest config_digest)
           (fun () ->
             let prep = Prep.memo ~digest:circuit_digest circuit in
             flow ~scheme ?shift:shift_policy ~selection ?preflight
               ?resume:(Option.map (fun (ck : Checkpoint.t) -> ck.snapshot) resume)
               ?checkpoint:
                 (Option.map (fun (every, write) -> (every, fun s -> write (record s))) (save prep))
               ~label prep))

(* --- baseline fault-simulation coverage ---------------------------------

   The [tvs faultsim] measurement, cached under the circuit digest alone:
   the baseline test set is itself a deterministic function of the circuit. *)

type detection = { detected : int; faults : int; vectors : int }

let detection_kind = "FSIM"

let write_detection w d =
  Wire.write_varint w d.detected;
  Wire.write_varint w d.faults;
  Wire.write_varint w d.vectors

let read_detection r =
  let detected = Wire.read_varint r in
  let faults = Wire.read_varint r in
  let vectors = Wire.read_varint r in
  { detected; faults; vectors }

let baseline_detection (prep : Prep.t) =
  fst
  @@ Cache.memo ~kind:detection_kind
       ~key:(fun () -> Store_digest.circuit prep.circuit)
       write_detection read_detection
  @@ fun () ->
  Tvs_obs.Trace.with_span "faultsim.baseline" ~args:[ ("circuit", Circuit.name prep.Prep.circuit) ]
  @@ fun () ->
  let sim = Fault_sim.create prep.circuit in
  (* One drop over the whole baseline set, 63 vectors to a pack: no pack
     screens a fault an earlier one caught. *)
  let vectors =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) prep.baseline.Baseline.vectors
  in
  let hit = Array.make (Array.length prep.faults) false in
  {
    detected = Array.fold_left ( + ) 0 (Fault_sim.drop_detected sim ~vectors prep.faults hit);
    faults = Array.length prep.faults;
    vectors = prep.baseline.Baseline.num_vectors;
  }

let default_table2_circuits =
  [ "s444"; "s526"; "s641"; "s953"; "s1196"; "s1423"; "s5378"; "s9234" ]

let default_table5_circuits =
  [ "s5378"; "s9234"; "s13207"; "s15850"; "s35932"; "s38417"; "s38584" ]

let table5_default_scale = function
  | "s13207" | "s15850" | "s35932" | "s38417" | "s38584" -> 0.25
  | "s9234" -> 0.5
  | _ -> 1.0

(* Tables 2-4 run s9234 at half scale by default: its full profile takes
   ≈44 s per stitched run at one job, and each table runs it three or four
   times (EXPERIMENTS.md E5 records the full-scale measurements). *)
let table24_default_scale = function "s9234" -> 0.5 | _ -> 1.0

let mean values =
  match values with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

(* ------------------------------------------------------------------ *)
(* Table 1: the worked example's fault behaviour.                      *)

let show_bits a = String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let table1 () =
  let c = Fig1.circuit () in
  let fsim = Fault_sim.create c in
  let sim = Parallel.create c in
  let response fault state =
    match fault with
    | None -> snd (Parallel.run_single sim ~pi:[||] ~state)
    | Some f -> (
        let r = Fault_sim.run_batch fsim ~pi:[||] ~state ~faults:[| f |] in
        match r.Fault_sim.outcomes.(0) with
        | Fault_sim.Same | Fault_sim.Po_detected -> r.Fault_sim.good.Fault_sim.capture
        | Fault_sim.Capture_differs cap -> cap)
  in
  let replay fault =
    (* (TV, RP) pairs until the fault is caught through the two observed
       tail bits of the following shift. *)
    let rec go contents_g contents_f fresh_remaining acc =
      let caught = Chain.emitted contents_g ~s:2 <> Chain.emitted contents_f ~s:2 in
      if caught || fresh_remaining = [] then List.rev acc
      else
        match fresh_remaining with
        | [] -> List.rev acc
        | fresh :: rest ->
            let applied_g, _ = Chain.shift contents_g ~fresh in
            let applied_f, _ = Chain.shift contents_f ~fresh in
            let rg = response None applied_g in
            let rf = response fault applied_f in
            go rg rf rest ((show_bits applied_f, show_bits rf) :: acc)
    in
    let first = List.hd Fig1.vectors in
    let rg = response None first in
    let rf = response fault first in
    go rg rf (List.tl Fig1.fresh_bits) [ (show_bits first, show_bits rf) ]
  in
  let tbl =
    Table.create
      ([ "fault" ]
      @ List.concat_map (fun i -> [ Printf.sprintf "TV%d" i; Printf.sprintf "RP%d" i ]) [ 1; 2; 3; 4 ])
  in
  let add_row name fault =
    let rows = replay fault in
    let cells =
      List.concat_map (fun (tv, rp) -> [ tv; rp ])
        (rows @ List.init (4 - List.length rows) (fun _ -> ("", "")))
    in
    Table.add_row tbl (name :: cells)
  in
  add_row "correct" None;
  List.iter (fun name -> add_row name (Some (Fig1.paper_fault c name))) Fig1.table1_faults;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Table 1: fault behaviour on the Fig. 1 circuit (schedule 3+2+2+2)\n";
  Buffer.add_string buf (Table.render tbl);
  (* Fault-set evolution summary (Section 3 narrative). *)
  let faults = Array.of_list (List.map (Fig1.paper_fault c) Fig1.table1_faults) in
  let machine = Cycle.create c ~faults in
  Buffer.add_string buf "\nfault sets per cycle (caught/hidden/uncaught):\n";
  List.iter
    (fun fresh ->
      ignore (Cycle.step machine ~pi:[||] ~fresh);
      Buffer.add_string buf
        (Printf.sprintf "  after cycle %d: %d/%d/%d\n" (Cycle.cycle_count machine)
           (Cycle.num_caught machine) (Cycle.num_hidden machine) (Cycle.num_uncaught machine)))
    Fig1.fresh_bits;
  ignore (Cycle.flush machine ~full:false);
  Buffer.add_string buf
    (Printf.sprintf "  after final unload: %d/%d/%d (leftover = redundant E-F/1)\n"
       (Cycle.num_caught machine) (Cycle.num_hidden machine) (Cycle.num_uncaught machine));
  Buffer.add_string buf
    (Printf.sprintf "cost: stitched 11 cycles / 17 bits vs traditional 15 cycles / 24 bits\n");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 2: size and type of shifting.                                 *)

let info_targets = [ (3, 8); (5, 8); (7, 8) ]

let table2 ?scale ?(circuits = default_table2_circuits) () =
  let headers =
    [ "circ"; "aTV" ]
    @ List.concat_map
        (fun (n, d) ->
          let tag = Printf.sprintf "%d/%d " n d in
          [ tag ^ "shift"; tag ^ "TV"; tag ^ "ex"; tag ^ "m"; tag ^ "t" ])
        info_targets
    @ [ "var TV"; "var ex"; "var m"; "var t" ]
  in
  let tbl = Table.create headers in
  let acc = Hashtbl.create 8 in
  let note key v = Hashtbl.replace acc key (v :: Option.value ~default:[] (Hashtbl.find_opt acc key)) in
  List.iter
    (fun name ->
      let sc = match scale with Some s -> s | None -> table24_default_scale name in
      let prep = Prep.get ~scale:sc name in
      let chain_len = Circuit.num_flops prep.Prep.circuit in
      let npi = Circuit.num_inputs prep.Prep.circuit in
      let fixed_cells =
        List.concat_map
          (fun (n, d) ->
            match Info_ratio.shift_for ~num:n ~den:d ~chain_len ~npi with
            | None -> [ "/"; "/"; "/"; "/"; "/" ]
            | Some s ->
                let label = Printf.sprintf "t2:%d/%d" n d in
                let r = run_flow ~shift:(Policy.Fixed s) ~label prep in
                note (Printf.sprintf "%d/%d:m" n d) r.m;
                note (Printf.sprintf "%d/%d:t" n d) r.t;
                [
                  Printf.sprintf "%d/%d" s chain_len;
                  string_of_int r.tv;
                  string_of_int r.ex;
                  Table.fmt_ratio r.m;
                  Table.fmt_ratio r.t;
                ])
          info_targets
      in
      let var = run_flow ~label:"t2:var" prep in
      note "var:m" var.m;
      note "var:t" var.t;
      Table.add_row tbl
        ([ name; string_of_int var.atv ]
        @ fixed_cells
        @ [ string_of_int var.tv; string_of_int var.ex; Table.fmt_ratio var.m; Table.fmt_ratio var.t ]))
    circuits;
  Table.add_rule tbl;
  let avg key = match Hashtbl.find_opt acc key with Some l -> Table.fmt_ratio (mean l) | None -> "/" in
  Table.add_row tbl
    ([ "Ave"; "" ]
    @ List.concat_map
        (fun (n, d) -> [ ""; ""; ""; avg (Printf.sprintf "%d/%d:m" n d); avg (Printf.sprintf "%d/%d:t" n d) ])
        info_targets
    @ [ ""; ""; avg "var:m"; avg "var:t" ]);
  "Table 2: varying the size and type of shifting\n" ^ Table.render tbl

(* ------------------------------------------------------------------ *)
(* Tables 3 and 4: one stitched run per variant and circuit.           *)

(* One row of m/t ratio pairs per circuit, one pair per [(tag, v)]
   variant run as [run v] under the label [prefix ^ tag], and their means. *)
let variant_sweep ~title ~prefix ~run ?scale ~circuits variants =
  let tbl =
    Table.create ([ "circ" ] @ List.concat_map (fun (n, _) -> [ n ^ " m"; n ^ " t" ]) variants)
  in
  let sums = Hashtbl.create 8 in
  let note key v = Hashtbl.replace sums key (v :: Option.value ~default:[] (Hashtbl.find_opt sums key)) in
  List.iter
    (fun name ->
      let sc = match scale with Some s -> s | None -> table24_default_scale name in
      let prep = Prep.get ~scale:sc name in
      let cells =
        List.concat_map
          (fun (tag, v) ->
            let r = run v ~label:(prefix ^ tag) prep in
            note (tag ^ ":m") r.m;
            note (tag ^ ":t") r.t;
            [ Table.fmt_ratio r.m; Table.fmt_ratio r.t ])
          variants
      in
      Table.add_row tbl (name :: cells))
    circuits;
  Table.add_rule tbl;
  Table.add_row tbl
    ("Ave"
    :: List.concat_map
         (fun (tag, _) ->
           [
             Table.fmt_ratio (mean (Hashtbl.find sums (tag ^ ":m")));
             Table.fmt_ratio (mean (Hashtbl.find sums (tag ^ ":t")));
           ])
         variants);
  title ^ "\n" ^ Table.render tbl

(* Table 3: hidden fault observability (XOR schemes). *)
let table3 ?scale ?(circuits = default_table2_circuits) () =
  variant_sweep ~title:"Table 3: hidden fault observability (variable shift, most-faults)"
    ~prefix:"t3:" ~run:(fun scheme ~label prep -> run_flow ~scheme ~label prep) ?scale ~circuits
    [ ("NXOR", Xor_scheme.Nxor); ("VXOR", Xor_scheme.Vxor); ("HXOR", Xor_scheme.Hxor 3) ]

(* Table 4: selection of test vectors. *)
let table4 ?scale ?(circuits = default_table2_circuits) () =
  variant_sweep ~title:"Table 4: selection of test vectors (variable shift, NXOR)" ~prefix:"t4:"
    ~run:(fun selection ~label prep -> run_flow ~selection ~label prep) ?scale ~circuits
    [
      ("Random", Policy.Random_order);
      ("Hardness", Policy.Hardness_order);
      ("Most-faults", Policy.Most_faults 5);
    ]

(* ------------------------------------------------------------------ *)
(* Table 5: large circuits under the best scheme.                      *)

let table5 ?scale ?(circuits = default_table5_circuits) () =
  let tbl = Table.create [ "circ"; "I/O"; "scan#"; "TV"; "ex"; "m"; "t"; "cov" ] in
  let ms = ref [] and ts = ref [] in
  List.iter
    (fun name ->
      let sc = match scale with Some s -> s | None -> table5_default_scale name in
      let prep = Prep.get ~scale:sc name in
      let c = prep.Prep.circuit in
      let r = run_flow ~label:"t5" prep in
      ms := r.m :: !ms;
      ts := r.t :: !ts;
      Table.add_row tbl
        [
          Circuit.name c;
          Printf.sprintf "%d/%d" (Circuit.num_inputs c) (Circuit.num_outputs c);
          string_of_int (Circuit.num_flops c);
          string_of_int r.tv;
          string_of_int r.ex;
          Table.fmt_ratio r.m;
          Table.fmt_ratio r.t;
          Printf.sprintf "%.3f" r.coverage;
        ])
    circuits;
  Table.add_rule tbl;
  Table.add_row tbl
    [ "Ave"; ""; ""; ""; ""; Table.fmt_ratio (mean !ms); Table.fmt_ratio (mean !ts); "" ];
  "Table 5: large circuits (variable shift, most-faults, NXOR)\n" ^ Table.render tbl

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6).                                           *)

(* Wall clock, not [Sys.time]: CPU time sums across domains and would
   silently report a domain-pool run as slower than it is. *)
let time_it = Tvs_util.Clock.time_it

let ablations ?(scale = 1.0) ?(circuit = "s953") () =
  let prep = Prep.get ~scale circuit in
  let c = prep.Prep.circuit in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "Ablations on %s\n" (Circuit.name c));
  (* 1. Parallel vs serial fault simulation over the baseline test set. *)
  let sim = Fault_sim.create c in
  let vectors = prep.Prep.baseline.Baseline.vectors in
  let vec_pairs = Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) vectors in
  let faults = prep.Prep.faults in
  let _, par_time =
    time_it (fun () -> ignore (Fault_sim.detected_matrix sim ~vectors:vec_pairs faults))
  in
  let _, ser_time =
    time_it (fun () ->
        Array.iter
          (fun (v : Cube.vector) ->
            Array.iter
              (fun f -> ignore (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan f))
              faults)
          vectors)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "  parallel vs serial fault simulation: %.3fs vs %.3fs (speedup %.1fx) over %d vectors x %d faults\n"
       par_time ser_time
       (if par_time > 0.0 then ser_time /. par_time else nan)
       (Array.length vectors) (Array.length faults));
  (* 1b. Domain-pool scaling: the same word-parallel screening fanned out
     over 1/2/4/N domains. Results are bit-identical at every width; only
     the wall clock moves. *)
  let jobs_sweep = List.sort_uniq compare [ 1; 2; 4; Tvs_util.Pool.default_jobs () ] in
  let screen_time j =
    let sim = Fault_sim.create ~jobs:j c in
    snd (time_it (fun () -> ignore (Fault_sim.detected_matrix sim ~vectors:vec_pairs faults)))
  in
  let scaling = List.map (fun j -> (j, screen_time j)) jobs_sweep in
  let base_time = List.assoc 1 scaling in
  Buffer.add_string buf "  domain-pool scaling (wall clock):";
  List.iter
    (fun (j, tm) ->
      Buffer.add_string buf
        (Printf.sprintf " jobs=%d %.3fs (%.2fx)" j tm
           (if tm > 0.0 then base_time /. tm else nan)))
    scaling;
  Buffer.add_char buf '\n';
  (* 2. SCOAP-guided vs naive PODEM backtrace. *)
  let gen_with ~guided ~dropping label =
    let options =
      {
        Generator.random_patterns = 0;
        compaction = false;
        fault_dropping = dropping;
        podem = { Podem.default_config with guided };
      }
    in
    let rng = Prep.engine_seed prep ("ablation:" ^ label) in
    time_it (fun () -> Generator.generate ~options ~rng prep.Prep.ctx prep.Prep.testable)
  in
  let guided_gen, guided_time = gen_with ~guided:true ~dropping:true "guided" in
  let naive_gen, naive_time = gen_with ~guided:false ~dropping:true "naive" in
  Buffer.add_string buf
    (Printf.sprintf
       "  SCOAP-guided vs naive backtrace: %d vs %d aborts, %d vs %d vectors, %.2fs vs %.2fs\n"
       (List.length guided_gen.Generator.aborted)
       (List.length naive_gen.Generator.aborted)
       (Generator.num_vectors guided_gen) (Generator.num_vectors naive_gen) guided_time naive_time);
  (* 3. Fault dropping on/off. *)
  let nodrop_gen, nodrop_time = gen_with ~guided:true ~dropping:false "nodrop" in
  Buffer.add_string buf
    (Printf.sprintf "  fault dropping on vs off: %d vs %d vectors, %.2fs vs %.2fs\n"
       (Generator.num_vectors guided_gen) (Generator.num_vectors nodrop_gen) guided_time nodrop_time);
  (* 4. Fault collapsing. *)
  Buffer.add_string buf
    (Printf.sprintf "  fault collapsing: %d -> %d faults (ratio %.2f)\n"
       (Array.length prep.Prep.all_faults) (Array.length prep.Prep.faults)
       (float_of_int (Array.length prep.Prep.faults) /. float_of_int (Array.length prep.Prep.all_faults)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* MISR study: aliasing and diagnostic resolution (Sections 1-2).      *)

let misr_study ?(scale = 1.0) ?(circuit = "s953") () =
  let prep = Prep.get ~scale circuit in
  let c = prep.Prep.circuit in
  let sim = Parallel.create c in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) prep.Prep.baseline.Baseline.vectors
  in
  let faults = prep.Prep.faults in
  (* Full per-cycle response streams (POs then captured cells) under the
     whole test set: the fault-free machine's, then one per fault. *)
  let good_stream, faulty_streams = Tvs_fault.Diagnosis.responses sim ~tests faults in
  let exact_detected = Array.map (fun stream -> stream <> good_stream) faulty_streams in
  let detected_count = Array.fold_left (fun n d -> if d then n + 1 else n) 0 exact_detected in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "MISR aliasing study on %s: %d faults, %d detected by exact observation\n"
       (Circuit.name c) (Array.length faults) detected_count);
  List.iter
    (fun width ->
      let good_sig = Tvs_scan.Misr.signature_of ~width good_stream in
      let aliased = ref 0 in
      let classes = Hashtbl.create 64 in
      Array.iteri
        (fun i stream ->
          if exact_detected.(i) then begin
            let s = Tvs_scan.Misr.signature_of ~width stream in
            if s = good_sig then incr aliased;
            Hashtbl.replace classes s (1 + Option.value ~default:0 (Hashtbl.find_opt classes s))
          end)
        faulty_streams;
      let n_classes = Hashtbl.length classes in
      Buffer.add_string buf
        (Printf.sprintf
           "  %2d-bit MISR: %d aliasing escape(s); %d diagnosis classes for %d faults (avg %.1f faults/class)\n"
           width !aliased n_classes detected_count
           (float_of_int detected_count /. float_of_int (max 1 n_classes))))
    [ 4; 8; 16 ];
  (* Exact observation: diagnosis classes from the full streams. *)
  let exact_classes = Hashtbl.create 64 in
  Array.iteri
    (fun i stream ->
      if exact_detected.(i) then begin
        let key = Tvs_fault.Diagnosis.key_of stream in
        Hashtbl.replace exact_classes key (1 + Option.value ~default:0 (Hashtbl.find_opt exact_classes key))
      end)
    faulty_streams;
  Buffer.add_string buf
    (Printf.sprintf
       "  exact observation (stitched flow): 0 aliasing escapes by construction; %d diagnosis classes (avg %.1f faults/class)\n"
       (Hashtbl.length exact_classes)
       (float_of_int detected_count /. float_of_int (max 1 (Hashtbl.length exact_classes))));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Prior-art comparison: static reordering vs stitched generation.     *)

let comparison_study ?(scale = 1.0) ?(circuits = [ "s444"; "s953"; "s1196" ]) () =
  let tbl =
    Table.create
      [
        "circ"; "aTV"; "static m"; "static t"; "bcast m"; "bcast t"; "bcast par/ser";
        "stitched m"; "stitched t";
      ]
  in
  List.iter
    (fun name ->
      let prep = Prep.get ~scale name in
      let c = prep.Prep.circuit in
      let static =
        Tvs_core.Static_stitch.reorder c
          ~rng:(Prep.engine_seed prep "static")
          ~cubes:prep.Prep.baseline.Baseline.cubes
      in
      let bcast =
        Tvs_core.Broadcast_scan.run c
          ~rng:(Prep.engine_seed prep "bcast")
          ~partitions:4 ~faults:prep.Prep.faults ~fallback:prep.Prep.baseline.Baseline.vectors
      in
      let stitched = run_flow ~label:"cmp" prep in
      Table.add_row tbl
        [
          name;
          string_of_int prep.Prep.baseline.Baseline.num_vectors;
          Table.fmt_ratio static.Tvs_core.Static_stitch.memory_ratio;
          Table.fmt_ratio static.Tvs_core.Static_stitch.time_ratio;
          Table.fmt_ratio bcast.Tvs_core.Broadcast_scan.memory_ratio;
          Table.fmt_ratio bcast.Tvs_core.Broadcast_scan.time_ratio;
          Printf.sprintf "%d/%d" bcast.Tvs_core.Broadcast_scan.parallel_vectors
            bcast.Tvs_core.Broadcast_scan.serial_vectors;
          Table.fmt_ratio stitched.m;
          Table.fmt_ratio stitched.t;
        ])
    circuits;
  "Prior-art comparison: static reordering [6], broadcast scan [3] (4 partitions,\n\
   MISR granted), and stitched generation (no hardware)\n"
  ^ Table.render tbl

(* ------------------------------------------------------------------ *)
(* Random-pattern testability: why s35932 compresses so well.          *)

let random_testability ?(patterns = 256) ?(circuits = [ "s444"; "s953"; "s1423"; "s5378"; "s35932" ]) () =
  let checkpoints =
    List.sort_uniq compare (List.filter (fun k -> k <= patterns) [ 32; 128; patterns ])
  in
  let tbl =
    Table.create
      ([ "circ"; "faults" ] @ List.map (fun k -> Printf.sprintf "cov@%d" k) checkpoints)
  in
  List.iter
    (fun name ->
      let profile =
        Tvs_circuits.Profiles.scale (Tvs_circuits.Profiles.find name) (table5_default_scale name)
      in
      let c = Tvs_circuits.Synth.generate profile in
      let faults = Fault_gen.collapsed c in
      let sim = Fault_sim.create c in
      let lfsr = Tvs_scan.Lfsr.create ~seed:0x5eed ~width:24 () in
      let vectors =
        Array.init patterns (fun _ ->
            let pi = Tvs_scan.Lfsr.next_vector lfsr (Circuit.num_inputs c) in
            (pi, Tvs_scan.Lfsr.next_vector lfsr (Circuit.num_flops c)))
      in
      let news = Fault_sim.drop_detected sim ~vectors faults (Array.map (fun _ -> false) faults) in
      let coverage_at k =
        float_of_int (Array.fold_left ( + ) 0 (Array.sub news 0 k))
        /. float_of_int (Array.length faults)
      in
      Table.add_row tbl
        ([ Circuit.name c; string_of_int (Array.length faults) ]
        @ List.map (fun k -> Printf.sprintf "%.1f%%" (100.0 *. coverage_at k)) checkpoints))
    circuits;
  "Random-pattern (LFSR) testability: easy circuits saturate fast\n" ^ Table.render tbl

(* ------------------------------------------------------------------ *)
(* Diagnosis resolution with full response data.                       *)

let diagnosis_study ?(scale = 1.0) ?(circuit = "s444") () =
  let prep = Prep.get ~scale circuit in
  let c = prep.Prep.circuit in
  let sim = Parallel.create c in
  let tests =
    Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) prep.Prep.baseline.Baseline.vectors
  in
  let dict = Tvs_fault.Diagnosis.build sim ~faults:prep.Prep.faults ~tests in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "Diagnosis study on %s (%d faults, %d test vectors)\n" (Circuit.name c)
       (Array.length prep.Prep.faults) (Array.length tests));
  Buffer.add_string buf
    (Printf.sprintf "  detected faults      : %d\n" (Tvs_fault.Diagnosis.num_detected dict));
  Buffer.add_string buf
    (Printf.sprintf "  distinguishable      : %d behaviour classes\n"
       (Tvs_fault.Diagnosis.num_classes dict));
  Buffer.add_string buf
    (Printf.sprintf "  resolution           : %.2f faults/class (1.00 = perfect)\n"
       (Tvs_fault.Diagnosis.resolution dict));
  (* Round-trip demonstration: diagnosing each fault's own response finds it. *)
  let sample =
    Array.of_list (List.filteri (fun i _ -> i mod 7 = 0) (Array.to_list prep.Prep.faults))
  in
  let hits = ref 0 in
  Array.iter2
    (fun f observed ->
      match Tvs_fault.Diagnosis.diagnose dict ~observed with
      | Tvs_fault.Diagnosis.Candidates cands when List.exists (Fault.equal f) cands -> incr hits
      | Tvs_fault.Diagnosis.No_defect -> incr hits (* undetected fault: looks clean *)
      | Tvs_fault.Diagnosis.Candidates _ | Tvs_fault.Diagnosis.Unknown_defect -> ())
    sample
    (snd (Tvs_fault.Diagnosis.responses sim ~tests sample));
  Buffer.add_string buf
    (Printf.sprintf "  round-trip sample    : %d/%d responses correctly diagnosed\n" !hits
       (Array.length sample));
  Buffer.contents buf
