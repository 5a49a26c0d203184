(* Equivalence of the event-driven cone-restricted fault simulator with a
   naive single-fault reference simulator, plus a unit test for
   [Circuit.cone_rep], the key the simulator's chunk grouping sorts by. *)

module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Profiles = Tvs_circuits.Profiles
module Synth = Tvs_circuits.Synth
module Rng = Tvs_util.Rng

(* Same deterministic family as test_properties.ml. *)
let tiny_profile i =
  let styles = [| Profiles.Balanced; Profiles.Shallow; Profiles.Deep |] in
  {
    Profiles.name = Printf.sprintf "ev-%d" i;
    npi = 2 + (i mod 5);
    npo = 1 + (i mod 4);
    nff = 4 + (i mod 9);
    ngates = 25 + (7 * (i mod 11));
    style = styles.(i mod 3);
  }

let tiny_circuit i = Synth.generate (tiny_profile i)

let random_stimulus rng c =
  ( Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng),
    Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) )

(* A random fault subset biased to include branch faults when present. *)
let random_faults rng c =
  let all = Fault_gen.all c in
  let n = Array.length all in
  let len = 1 + Rng.int rng (min n 150) in
  Array.init len (fun _ -> all.(Rng.int rng n))

let outcome_equal a b =
  match (a, b) with
  | Fault_sim.Same, Fault_sim.Same -> true
  | Fault_sim.Po_detected, Fault_sim.Po_detected -> true
  | Fault_sim.Capture_differs x, Fault_sim.Capture_differs y -> x = y
  | _ -> false

let batch_equal (a : Fault_sim.batch_result) (b : Fault_sim.batch_result) =
  a.Fault_sim.good = b.Fault_sim.good
  && Array.length a.Fault_sim.outcomes = Array.length b.Fault_sim.outcomes
  && Array.for_all2 outcome_equal a.Fault_sim.outcomes b.Fault_sim.outcomes

(* 0. Ground truth: a naive single-fault bool-level simulator in the legacy
   per-gate-record style — it walks [Circuit.driver] nodes directly, knowing
   nothing of the flat SoA tables, lane packing, injection plans, event
   propagation or diff masks of the production simulator. Agreement across
   arbitrary circuits and fault mixes checks the whole packed stack end to
   end. *)
let ref_frame c ~fault ~pi ~state =
  let values = Array.make (Circuit.num_nets c) false in
  let stem_override net =
    match fault with
    | Some { Fault.branch = None; stem; stuck } when stem = net -> Some stuck
    | Some _ | None -> None
  in
  let read ~sink ~pin src =
    match fault with
    | Some { Fault.branch = Some (s, p); stuck; _ } when s = sink && p = pin -> stuck
    | Some _ | None -> values.(src)
  in
  let set net v =
    values.(net) <- (match stem_override net with Some b -> b | None -> v)
  in
  Array.iteri (fun i net -> set net pi.(i)) (Circuit.inputs c);
  Array.iteri (fun i net -> set net state.(i)) (Circuit.flops c);
  Array.iter
    (fun net ->
      match Circuit.driver c net with
      | Circuit.Const b -> set net b
      | Circuit.Gate_node (kind, ins) ->
          let inb p = read ~sink:net ~pin:p ins.(p) in
          let fold op seed =
            let acc = ref seed in
            Array.iteri (fun p _ -> acc := op !acc (inb p)) ins;
            !acc
          in
          let v =
            match kind with
            | Gate.And -> fold ( && ) true
            | Gate.Nand -> not (fold ( && ) true)
            | Gate.Or -> fold ( || ) false
            | Gate.Nor -> not (fold ( || ) false)
            | Gate.Xor -> fold ( <> ) false
            | Gate.Xnor -> not (fold ( <> ) false)
            | Gate.Not -> not (inb 0)
            | Gate.Buf -> inb 0
          in
          set net v
      | Circuit.Primary_input | Circuit.Flip_flop _ -> ())
    (Circuit.topo_order c);
  let po = Array.map (fun net -> values.(net)) (Circuit.outputs c) in
  let capture =
    Array.map
      (fun fnet ->
        match Circuit.driver c fnet with
        | Circuit.Flip_flop d -> read ~sink:fnet ~pin:0 d
        | Circuit.Primary_input | Circuit.Gate_node _ | Circuit.Const _ -> assert false)
      (Circuit.flops c)
  in
  (po, capture)

(* The expected [run_per_state] result: fault [i]'s machine applies its own
   [states.(i)] and is compared against the fault-free machine under
   [good_state] — first at the POs, then at the capture. *)
let ref_batch c ~pi ~good_state ~faults ~states =
  let po, capture = ref_frame c ~fault:None ~pi ~state:good_state in
  let outcome i f =
    let fpo, fcap = ref_frame c ~fault:(Some f) ~pi ~state:states.(i) in
    if fpo <> po then Fault_sim.Po_detected
    else if fcap <> capture then Fault_sim.Capture_differs fcap
    else Fault_sim.Same
  in
  { Fault_sim.good = { Fault_sim.po; capture }; outcomes = Array.mapi outcome faults }

(* [run_batch]: every machine applies the same state. *)
let ref_broadcast c ~pi ~state ~faults =
  ref_batch c ~pi ~good_state:state ~faults ~states:(Array.map (fun _ -> state) faults)

(* Both screening entry points, one vector at a time and as a one-row
   matrix. *)
let qcheck_reference_equivalence =
  QCheck.Test.make ~name:"packed paths equal naive reference" ~count:40
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      let good = ref_frame c ~fault:None ~pi ~state in
      let expect = Array.map (fun f -> ref_frame c ~fault:(Some f) ~pi ~state <> good) faults in
      let sim = Fault_sim.create c in
      Fault_sim.detected_faults sim ~pi ~state faults = expect
      && Fault_sim.detected_matrix sim ~vectors:[| (pi, state) |] faults = [| expect |])

(* 1. run_batch: outcomes (including Capture_differs payloads) are bit-exact
   with the reference on arbitrary circuits and fault mixes. *)
let qcheck_run_batch_equivalence =
  QCheck.Test.make ~name:"event run_batch equals reference" ~count:50
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      batch_equal
        (Fault_sim.run_batch (Fault_sim.create c) ~pi ~state ~faults)
        (ref_broadcast c ~pi ~state ~faults))

(* 2. run_per_state: per-lane divergent scan states seed correctly. *)
let qcheck_run_per_state_equivalence =
  QCheck.Test.make ~name:"event run_per_state equals reference" ~count:50
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, good_state = random_stimulus rng c in
      let nflops = Circuit.num_flops c in
      (* Divergent states: each fault's machine mutates a few bits of the
         good state; some keep it unchanged (the convergent case). *)
      let states =
        Array.map
          (fun _ ->
            let st = Array.copy good_state in
            for _ = 1 to Rng.int rng 3 do
              let j = Rng.int rng nflops in
              st.(j) <- not st.(j)
            done;
            st)
          faults
      in
      batch_equal
        (Fault_sim.run_per_state (Fault_sim.create c) ~pi ~good_state ~faults ~states)
        (ref_batch c ~pi ~good_state ~faults ~states))

(* 3. A reused context stays exact across many stimuli (the engine's
   access pattern: same context, fresh stimulus and fault subset per
   cycle). *)
let qcheck_reused_context_stays_exact =
  QCheck.Test.make ~name:"reused event context stays exact" ~count:15
    QCheck.(pair (int_range 0 20) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let sim = Fault_sim.create c in
      let rng = Rng.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 8 do
        let faults = random_faults rng c in
        let pi, state = random_stimulus rng c in
        let a = Fault_sim.run_batch sim ~pi ~state ~faults in
        if not (batch_equal a (ref_broadcast c ~pi ~state ~faults)) then ok := false
      done;
      !ok)

(* --- domain-pool fan-out ------------------------------------------------ *)

(* 4. The tentpole determinism property: fanning chunks across a 4-lane
   domain pool returns exactly what the sequential path returns — caught
   sets, outcomes and Capture_differs payloads — on both the screening
   ([detected_faults]) and the outcome ([run_batch]) paths. *)
let qcheck_jobs_equivalence =
  QCheck.Test.make ~name:"jobs=1 equals jobs=4 on both paths" ~count:30
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      let s1 = Fault_sim.create ~jobs:1 c in
      let s4 = Fault_sim.create ~jobs:4 c in
      Fault_sim.detected_faults s1 ~pi ~state faults = Fault_sim.detected_faults s4 ~pi ~state faults
      && batch_equal
           (Fault_sim.run_batch s1 ~pi ~state ~faults)
           (Fault_sim.run_batch s4 ~pi ~state ~faults))

let reset_counters () = Tvs_obs.Metrics.reset ~prefix:"faultsim." ()

(* 5. Regression: the per-cycle work counters are merged in chunk order by
   the submitter, so a multi-domain run must tally exactly what the
   sequential run tallies. s444's 763 collapsed faults span 13 chunks —
   enough for real fan-out. *)
let test_counters_merge_across_jobs () =
  let c = Synth.generate_named "s444" in
  let faults = Fault_gen.collapsed c in
  let rng = Rng.create 99L in
  let stimuli = Array.init 4 (fun _ -> random_stimulus rng c) in
  let tally jobs =
    let sim = Fault_sim.create ~jobs c in
    reset_counters ();
    let flags =
      Array.map (fun (pi, state) -> Fault_sim.detected_faults sim ~pi ~state faults) stimuli
    in
    (flags, Fault_sim.counters ())
  in
  let flags1, ctr1 = tally 1 in
  List.iter
    (fun jobs ->
      let flagsj, ctrj = tally jobs in
      Alcotest.(check bool)
        (Printf.sprintf "caught flags identical at jobs=%d" jobs)
        true (flags1 = flagsj);
      Alcotest.(check bool)
        (Printf.sprintf "counters identical at jobs=%d" jobs)
        true (ctr1 = ctrj))
    [ 2; 4 ];
  reset_counters ()

(* --- multi-vector screening -------------------------------------------- *)

let random_vectors rng c n = Array.init n (fun _ -> random_stimulus rng c)

(* 6. detected_matrix's contract: row [v] equals a detected_faults screen of
   vector [v]. Up to 150 vectors span three 63-vector packs, so a row
   written at the wrong pack offset fails here at any jobs value; a single
   vector takes the per-vector kernel. *)
let qcheck_matrix_equals_per_vector =
  QCheck.Test.make ~name:"detected_matrix rows equal detected_faults" ~count:25
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let vectors = random_vectors rng c (1 + Rng.int rng 150) in
      let sim = Fault_sim.create c in
      let matrix = Fault_sim.detected_matrix sim ~vectors faults in
      Array.length matrix = Array.length vectors
      && Array.for_all2
           (fun row (pi, state) -> row = Fault_sim.detected_faults sim ~pi ~state faults)
           matrix vectors)

(* 7. The pool's pack axis is a pure scheduling choice: every jobs value
   returns the byte-identical matrix. 64 to 190 vectors span two to four
   packs of 63, the last one ragged. *)
let qcheck_matrix_jobs_invariance =
  QCheck.Test.make ~name:"jobs=1 equals jobs=2,4 across batches" ~count:15
    QCheck.(pair (int_range 0 24) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let vectors = random_vectors rng c (64 + Rng.int rng 127) in
      let screen jobs = Fault_sim.detected_matrix (Fault_sim.create ~jobs c) ~vectors faults in
      let base = screen 1 in
      List.for_all (fun jobs -> screen jobs = base) [ 2; 4 ])

(* 7b. Fault dropping over a sequence equals a fold of one-vector screens of
   the whole list, from random starting flags: the same flags, and each
   vector counts the faults it detected first. Up to 150 vectors span
   three packs, at jobs 1 and 2. *)
let qcheck_drop_equals_fold =
  QCheck.Test.make ~name:"drop_detected equals a fold of detected_faults" ~count:25
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let vectors = random_vectors rng c (1 + Rng.int rng 150) in
      let start = Array.map (fun _ -> Rng.int rng 4 = 0) faults in
      let oracle = Fault_sim.create ~jobs:1 c in
      let expect = Array.copy start in
      let news =
        Array.map
          (fun (pi, state) ->
            let fresh = ref 0 in
            Array.iteri
              (fun k hit ->
                if hit && not expect.(k) then begin
                  expect.(k) <- true;
                  incr fresh
                end)
              (Fault_sim.detected_faults oracle ~pi ~state faults);
            !fresh)
          vectors
      in
      List.for_all
        (fun jobs ->
          let flags = Array.copy start in
          let got = Fault_sim.drop_detected (Fault_sim.create ~jobs c) ~vectors faults flags in
          got = news && flags = expect)
        [ 1; 2 ])

let test_matrix_empty_vectors () =
  let c = tiny_circuit 3 in
  let faults = Fault_gen.collapsed c in
  let sim = Fault_sim.create c in
  Alcotest.(check int)
    "no vectors, no rows" 0
    (Array.length (Fault_sim.detected_matrix sim ~vectors:[||] faults))

(* 8. Work counters are jobs-invariant across packs: per-pack work is
   fixed, shards merge by summation, and 130 vectors make three packs of 63
   (the last ragged) that the pool can deal out to different slots. *)
let test_counters_merge_across_batches () =
  let c = Synth.generate_named "s444" in
  let faults = Fault_gen.collapsed c in
  let rng = Rng.create 7L in
  let vectors = Array.init 130 (fun _ -> random_stimulus rng c) in
  let tally jobs =
    let sim = Fault_sim.create ~jobs c in
    reset_counters ();
    let matrix = Fault_sim.detected_matrix sim ~vectors faults in
    (matrix, Fault_sim.counters ())
  in
  let matrix1, ctr1 = tally 1 in
  List.iter
    (fun jobs ->
      let matrixj, ctrj = tally jobs in
      Alcotest.(check bool)
        (Printf.sprintf "matrix identical at jobs=%d" jobs)
        true (matrix1 = matrixj);
      Alcotest.(check bool)
        (Printf.sprintf "counters identical at jobs=%d" jobs)
        true (ctr1 = ctrj))
    [ 2; 4 ];
  reset_counters ()

(* --- fanout-free regions ------------------------------------------------ *)

module Soa = Tvs_sim.Soa
module Parallel = Tvs_sim.Parallel

(* The FFR table's invariants: a net is a root exactly when it is a PO,
   feeds a flop or has other than one consumer; a non-root net's one
   consumer is a gate, recorded with its pin, and the net shares that
   gate's region; [root.(root r) = r]; the order lists every net once,
   level-descending. *)
let ffr_invariants c =
  let soa = Soa.create c in
  let n = Circuit.num_nets c in
  let is_flop s = match Circuit.driver c s with Circuit.Flip_flop _ -> true | _ -> false in
  let is_gate s = match Circuit.driver c s with Circuit.Gate_node _ -> true | _ -> false in
  let ok = ref true in
  let check b = if not b then ok := false in
  for net = 0 to n - 1 do
    let r = soa.Soa.ffr_root.(net) in
    check (soa.Soa.ffr_root.(r) = r);
    let fo = Circuit.fanout c net in
    if Circuit.is_output c net || Array.exists (fun (s, _) -> is_flop s) fo || Array.length fo <> 1
    then check (r = net && soa.Soa.ffr_sink.(net) = -1 && soa.Soa.ffr_pin.(net) = -1)
    else begin
      let s, p = fo.(0) in
      check (soa.Soa.ffr_sink.(net) = s && soa.Soa.ffr_pin.(net) = p);
      check (is_gate s && not (Circuit.is_output c net));
      check (r = soa.Soa.ffr_root.(s))
    end
  done;
  let order = soa.Soa.ffr_order in
  let seen = Array.make n false in
  check (Array.length order = n);
  Array.iteri
    (fun k net ->
      check (not seen.(net));
      seen.(net) <- true;
      if k > 0 then check (Circuit.level c order.(k - 1) >= Circuit.level c net))
    order;
  !ok

(* Every FFR corner in one circuit:
   - k = 1, a const feeding a gate;
   - g1 = AND(a, a), one net on two pins of one gate;
   - g2 = NAND(k, b), which also feeds flop q1: branch faults into a flop;
   - g3 = OR(g1, g2), a PO that also feeds g4;
   - g4 = XOR(g3, q1), a PO;
   - g5 = NOT(g4), which feeds only flop q2's D;
   - g6 = AND(b, q2), a dangling gate output. *)
let ffr_corners () =
  let module B = Circuit.Builder in
  let b = B.create "ffr-corners" in
  let a = B.input b "a" in
  let bb = B.input b "b" in
  let q1 = B.flop_forward b "q1" in
  let q2 = B.flop_forward b "q2" in
  let k = B.const b ~name:"k" true in
  let g1 = B.gate b ~name:"g1" Gate.And [ a; a ] in
  let g2 = B.gate b ~name:"g2" Gate.Nand [ k; bb ] in
  let g3 = B.gate b ~name:"g3" Gate.Or [ g1; g2 ] in
  let g4 = B.gate b ~name:"g4" Gate.Xor [ g3; q1 ] in
  let g5 = B.gate b ~name:"g5" Gate.Not [ g4 ] in
  ignore (B.gate b ~name:"g6" Gate.And [ bb; q2 ]);
  B.connect_flop b q1 g2;
  B.connect_flop b q2 g5;
  B.mark_output b g3;
  B.mark_output b g4;
  B.finish b

(* 11. Every fault of [Fault_gen.all] against every input/state combination
   (five times over: two packs, the second ragged) equals the naive
   reference, at one job and at two. *)
let test_ffr_corners () =
  let c = ffr_corners () in
  let net = Circuit.find_net c in
  let soa = Soa.create c in
  Alcotest.(check bool) "FFR invariants" true (ffr_invariants c);
  List.iter
    (fun (n, r) ->
      Alcotest.(check string) ("root of " ^ n) r (Circuit.net_name c soa.Soa.ffr_root.(net n)))
    [ ("k", "g2"); ("a", "a"); ("g1", "g3"); ("q1", "g4"); ("g5", "g5"); ("q2", "g6"); ("g6", "g6") ];
  let faults = Fault_gen.all c in
  Alcotest.(check bool)
    "branch faults into a flop" true
    (Array.exists (fun f -> f.Fault.branch = Some (net "q1", 0)) faults);
  let vectors =
    Array.init 80 (fun v ->
        let bit i = (v mod 16) lsr i land 1 = 1 in
        ([| bit 0; bit 1 |], [| bit 2; bit 3 |]))
  in
  let expect =
    Array.map
      (fun (pi, state) ->
        let good = ref_frame c ~fault:None ~pi ~state in
        Array.map (fun f -> ref_frame c ~fault:(Some f) ~pi ~state <> good) faults)
      vectors
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "matrix equals reference at jobs=%d" jobs)
        true
        (Fault_sim.detected_matrix (Fault_sim.create ~jobs c) ~vectors faults = expect))
    [ 1; 2 ];
  (* Malformed input is rejected before any sweep, and the context stays
     exact. *)
  let sim = Fault_sim.create ~jobs:1 c in
  let rejects label vectors faults =
    Alcotest.(check bool) label true
      (match Fault_sim.detected_matrix sim ~vectors faults with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "vector one input short" (Array.append vectors [| ([| true |], [| true; true |]) |]) faults;
  rejects "branch pin out of range"
    vectors
    (Array.append faults [| Fault.branch_fault (net "g3") ~sink:(net "g4") ~pin:2 true |]);
  Alcotest.(check bool) "next matrix exact" true
    (Fault_sim.detected_matrix sim ~vectors faults = expect)

(* 12. The FFR invariants hold on random circuits. *)
let qcheck_ffr_invariants =
  QCheck.Test.make ~name:"FFR table invariants" ~count:30 (QCheck.int_range 0 40) (fun i ->
      ffr_invariants (tiny_circuit i))

(* 13. The packed matrix equals the oracle: one [Parallel.run] per fault and
   vector, the fault in lane 1 beside the fault-free lane 0. Every fault of
   [Fault_gen.all] — branches into gates and flops, stems on POs and on
   flop D nets — over two packs at most. *)
let qcheck_matrix_equals_parallel =
  QCheck.Test.make ~name:"detected_matrix equals per-fault Parallel.run" ~count:15
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = Fault_gen.all c in
      let vectors = random_vectors rng c (2 + Rng.int rng 90) in
      let par = Parallel.create c in
      let word b = Tvs_sim.Lanes.broadcast b in
      let detects (pi, state) f =
        let r =
          Parallel.run par ~pi:(Array.map word pi) ~state:(Array.map word state)
            ~injections:[ Fault.to_injection f ~lane:1 ]
        in
        let differs w = Tvs_sim.Lanes.get w 0 <> Tvs_sim.Lanes.get w 1 in
        Array.exists differs r.Parallel.po || Array.exists differs r.Parallel.capture
      in
      Fault_sim.detected_matrix (Fault_sim.create c) ~vectors faults
      = Array.map (fun v -> Array.map (detects v) faults) vectors)

(* --- cone_rep: the chunk-grouping key -------------------------------------- *)

(* c = (a AND b); d = NOT c; flop q captures d; PO = c. *)
let cone_fixture () =
  let b = Circuit.Builder.create "cones" in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let c = Circuit.Builder.gate b ~name:"c" Gate.And [ a; bb ] in
  let d = Circuit.Builder.gate b ~name:"d" Gate.Not [ c ] in
  let q = Circuit.Builder.flop b ~name:"q" d in
  Circuit.Builder.mark_output b c;
  (Circuit.Builder.finish b, a, bb, c, d, q)

let test_cone_rep () =
  let circ, a, bb, c, d, q = cone_fixture () in
  List.iter
    (fun (name, net, rep) -> Alcotest.(check int) name rep (Circuit.cone_rep circ net))
    [
      ("a keys on PO c", a, c);
      ("b keys on PO c", bb, c);
      ("c keys on itself (a PO)", c, c);
      ("d keys on flop q", d, q);
      ("q has no consumer", q, max_int);
    ]

(* --- compiled injection plans ----------------------------------------- *)

module Inject = Tvs_sim.Inject
module Lanes = Tvs_sim.Lanes

(* Everything a simulator reads back from an override table: each net's
   stem masks and branch flag, and each consumer pin's fetched value, all on
   all-zero and all-one words. *)
let readings c ov =
  let n = Circuit.num_nets c in
  let zeros = Array.make n 0 and ones = Array.make n Lanes.all_mask in
  let out = ref [] in
  let note v = out := v :: !out in
  for net = 0 to n - 1 do
    note (Inject.apply_stem ov net 0);
    note (Inject.apply_stem ov net Lanes.all_mask);
    note (if Inject.sink_flagged ov net then 1 else 0);
    let ins =
      match Circuit.driver c net with
      | Circuit.Gate_node (_, ins) -> ins
      | Circuit.Flip_flop d -> [| d |]
      | Circuit.Primary_input | Circuit.Const _ -> [||]
    in
    Array.iteri
      (fun pin src ->
        note (Inject.fetch ov ~values:zeros ~sink:net ~pin src);
        note (Inject.fetch ov ~values:ones ~sink:net ~pin src))
      ins
  done;
  !out

(* Injections drawn from a few stems and a few lanes, so stems, polarities
   and lanes repeat; about half are fanout branches, into gates and flops
   alike. *)
let random_injections rng c =
  let n = Circuit.num_nets c in
  let stems = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng n) in
  let lanes = Array.init (1 + Rng.int rng 6) (fun _ -> Rng.int rng Lanes.width) in
  Array.init (1 + Rng.int rng 40) (fun _ ->
      let stem = stems.(Rng.int rng (Array.length stems)) in
      let fanout = Circuit.fanout c stem in
      let branch =
        if Array.length fanout > 0 && Rng.bool rng then
          Some fanout.(Rng.int rng (Array.length fanout))
        else None
      in
      let lane = lanes.(Rng.int rng (Array.length lanes)) in
      { Inject.lane; stuck = Rng.bool rng; stem; branch })

(* 9. A compiled plan installs exactly what the list install writes, its
   clear restores the identity, and a rejected array leaves the tables
   untouched. *)
let qcheck_compile_equals_install =
  QCheck.Test.make ~name:"compiled plan equals list install" ~count:60
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let a = random_injections rng c in
      let identity = readings c (Inject.create c) in
      let by_list = Inject.create c in
      Inject.install by_list (Array.to_list a);
      let by_plan = Inject.create c in
      let plan = Inject.compile by_plan a in
      let untouched_by_compile = readings c by_plan = identity in
      Inject.install_plan by_plan plan;
      let same = readings c by_plan = readings c by_list in
      Inject.clear_plan by_plan plan;
      let cleared = readings c by_plan = identity in
      (* One bad entry anywhere: a lane past the last, a negative lane, or
         a pin past (or before) the sink's fanins. *)
      let bad =
        let victim = a.(Rng.int rng (Array.length a)) in
        match Rng.int rng 3 with
        | 0 -> { victim with Inject.lane = Lanes.width }
        | 1 -> { victim with Inject.lane = -1 }
        | _ -> (
            match Circuit.fanout c victim.Inject.stem with
            | [||] -> { victim with Inject.lane = Lanes.width }
            | fo ->
                let sink, _ = fo.(0) in
                let pins =
                  match Circuit.driver c sink with
                  | Circuit.Gate_node (_, ins) -> Array.length ins
                  | Circuit.Flip_flop _ | Circuit.Primary_input | Circuit.Const _ -> 1
                in
                { victim with Inject.branch = Some (sink, if Rng.bool rng then pins else -1) })
      in
      let at = Rng.int rng (Array.length a + 1) in
      let with_bad =
        Array.concat [ Array.sub a 0 at; [| bad |]; Array.sub a at (Array.length a - at) ]
      in
      let rejected =
        match Inject.compile by_plan with_bad with
        | _ -> false
        | exception Invalid_argument _ -> readings c by_plan = identity
      in
      untouched_by_compile && same && cleared && rejected)

(* 10. A screen that rejects a fault midway leaves the context exact: the
   next call on it answers like a fresh context. *)
let test_rejected_screen_leaves_context_exact () =
  let c = Synth.generate_named "s444" in
  let faults = Fault_gen.collapsed c in
  let pi, state = random_stimulus (Rng.create 5L) c in
  let sim = Fault_sim.create ~jobs:1 c in
  let bad = Array.copy faults in
  bad.(100) <- Fault.stem_fault (Circuit.num_nets c) true;
  Alcotest.(check bool)
    "foreign stem rejected" true
    (match Fault_sim.detected_faults sim ~pi ~state bad with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool)
    "next screen exact" true
    (Fault_sim.detected_faults sim ~pi ~state (Array.copy faults)
    = Fault_sim.detected_faults (Fault_sim.create ~jobs:1 c) ~pi ~state faults)

let () =
  Alcotest.run "event-sim"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest qcheck_reference_equivalence;
          QCheck_alcotest.to_alcotest qcheck_run_batch_equivalence;
          QCheck_alcotest.to_alcotest qcheck_run_per_state_equivalence;
          QCheck_alcotest.to_alcotest qcheck_reused_context_stays_exact;
        ] );
      ( "parallel",
        [
          QCheck_alcotest.to_alcotest qcheck_jobs_equivalence;
          Alcotest.test_case "counters merge identically across jobs" `Quick
            test_counters_merge_across_jobs;
        ] );
      ( "matrix",
        [
          QCheck_alcotest.to_alcotest qcheck_matrix_equals_per_vector;
          QCheck_alcotest.to_alcotest qcheck_matrix_jobs_invariance;
          QCheck_alcotest.to_alcotest qcheck_drop_equals_fold;
          Alcotest.test_case "empty vector set" `Quick test_matrix_empty_vectors;
          Alcotest.test_case "counters merge identically across batches" `Quick
            test_counters_merge_across_batches;
        ] );
      ( "ffr",
        [
          Alcotest.test_case "every FFR corner equals the reference" `Quick test_ffr_corners;
          QCheck_alcotest.to_alcotest qcheck_ffr_invariants;
          QCheck_alcotest.to_alcotest qcheck_matrix_equals_parallel;
        ] );
      ( "cones",
        [
          Alcotest.test_case "cone_rep keys" `Quick test_cone_rep;
        ] );
      ( "plans",
        [
          QCheck_alcotest.to_alcotest qcheck_compile_equals_install;
          Alcotest.test_case "rejected screen leaves the context exact" `Quick
            test_rejected_screen_leaves_context_exact;
        ] );
    ]
