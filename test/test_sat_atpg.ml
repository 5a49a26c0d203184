(* Tests for the DPLL SAT solver and the SAT-based ATPG, including the
   cross-validation of PODEM: both engines must agree on every fault's
   testability, and every generated vector must be confirmed by fault
   simulation. *)

module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Ternary = Tvs_logic.Ternary
module Cube = Tvs_atpg.Cube
module Podem = Tvs_atpg.Podem
module Sat_atpg = Tvs_atpg.Sat_atpg
module Sat = Tvs_util.Sat
module Rng = Tvs_util.Rng

(* --- the solver ------------------------------------------------------- *)

let test_sat_trivial () =
  (match Sat.solve ~nvars:0 [] with
  | Sat.Sat _ -> ()
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "empty CNF is satisfiable");
  (match Sat.solve ~nvars:1 [ [] ] with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Unknown -> Alcotest.fail "empty clause is unsatisfiable")

let test_sat_units_and_conflict () =
  (match Sat.solve ~nvars:2 [ [ 1 ]; [ -1; 2 ] ] with
  | Sat.Sat m ->
      Alcotest.(check bool) "x1" true m.(1);
      Alcotest.(check bool) "x2 implied" true m.(2)
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "satisfiable");
  (match Sat.solve ~nvars:1 [ [ 1 ]; [ -1 ] ] with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Unknown -> Alcotest.fail "contradictory units")

let test_sat_pigeonhole_3_2 () =
  (* Three pigeons, two holes: classic small UNSAT. Variables p_ij = pigeon i
     in hole j, numbered 1..6. *)
  let v i j = (2 * i) + j + 1 in
  let clauses =
    (* Each pigeon somewhere. *)
    List.init 3 (fun i -> [ v i 0; v i 1 ])
    (* No two pigeons share a hole. *)
    @ List.concat_map
        (fun j ->
          [ [ -v 0 j; -v 1 j ]; [ -v 0 j; -v 2 j ]; [ -v 1 j; -v 2 j ] ])
        [ 0; 1 ]
  in
  match Sat.solve ~nvars:6 clauses with
  | Sat.Unsat -> ()
  | Sat.Sat _ | Sat.Unknown -> Alcotest.fail "PHP(3,2) must be unsatisfiable"

let test_sat_models_verified () =
  (* Random 3-CNFs at a satisfiable-leaning density: every Sat answer must
     check, and solving is deterministic. *)
  let rng = Rng.of_string "sat-random" in
  for _ = 1 to 50 do
    let nvars = 8 + Rng.int rng 8 in
    let nclauses = nvars * 3 in
    let clause () =
      List.init 3 (fun _ ->
          let v = 1 + Rng.int rng nvars in
          if Rng.bool rng then v else -v)
    in
    let clauses = List.init nclauses (fun _ -> clause ()) in
    match Sat.solve ~nvars clauses with
    | Sat.Sat model ->
        Alcotest.(check bool) "model checks" true (Sat.check ~nvars clauses model)
    | Sat.Unsat | Sat.Unknown -> () (* UNSAT trusted via the cross-validation below *)
  done

let test_sat_rejects_bad_literal () =
  Alcotest.(check bool) "out-of-range literal" true
    (try
       ignore (Sat.solve ~nvars:2 [ [ 3 ] ]);
       false
     with Invalid_argument _ -> true)

(* --- SAT ATPG --------------------------------------------------------- *)

let fig1 = Tvs_circuits.Fig1.circuit ()
let s27 = Tvs_circuits.S27.circuit ()

let test_sat_atpg_fig1 () =
  let sim = Fault_sim.create fig1 in
  List.iter
    (fun name ->
      let fault = Tvs_circuits.Fig1.paper_fault fig1 name in
      match Sat_atpg.generate fig1 fault with
      | Sat_atpg.Unknown -> Alcotest.fail (name ^ " must be decidable instantly")
      | Sat_atpg.Detected cube ->
          Alcotest.(check bool) (name ^ " is not the redundant fault") true (name <> "E-F/1");
          let v = Cube.fill_const false cube in
          Alcotest.(check bool) (name ^ " vector verified") true
            (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault)
      | Sat_atpg.Untestable ->
          Alcotest.(check string) "only E-F/1 is redundant" "E-F/1" name)
    Tvs_circuits.Fig1.table1_faults

let agree_on circuit =
  let ctx = Podem.create circuit in
  let sim = Fault_sim.create circuit in
  Array.iter
    (fun fault ->
      let name = Fault.name circuit fault in
      let sat = Sat_atpg.generate circuit fault in
      let podem = Podem.generate ~config:{ Podem.default_config with backtrack_limit = 10_000 } ctx fault in
      match (sat, podem) with
      | Sat_atpg.Unknown, _ -> Alcotest.fail (name ^ ": tiny circuit must be decidable")
      | Sat_atpg.Detected cube, Podem.Detected _ ->
          let v = Cube.fill_const true cube in
          Alcotest.(check bool) (name ^ ": SAT vector verified") true
            (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault)
      | Sat_atpg.Untestable, Podem.Untestable -> ()
      | Sat_atpg.Detected _, Podem.Untestable ->
          Alcotest.fail (name ^ ": PODEM wrongly declared untestable (SAT found a test)")
      | Sat_atpg.Untestable, Podem.Detected _ ->
          Alcotest.fail (name ^ ": PODEM 'detected' a provably redundant fault")
      | _, Podem.Aborted -> () (* inconclusive on PODEM's side *))
    (Fault_gen.collapsed circuit)

let test_cross_validation_fig1 () = agree_on fig1
let test_cross_validation_s27 () = agree_on s27

let test_cross_validation_synth () =
  (* A slice of a synthetic circuit's faults, both engines, full agreement. *)
  let c = Tvs_circuits.Synth.generate_named "s444" in
  let ctx = Podem.create c in
  let sim = Fault_sim.create c in
  let faults = Fault_gen.collapsed c in
  Array.iteri
    (fun i fault ->
      if i mod 17 = 0 then begin
        let name = Fault.name c fault in
        match (Sat_atpg.generate ~max_decisions:20_000 c fault, Podem.generate ctx fault) with
        | Sat_atpg.Unknown, _ -> () (* budget exhausted: inconclusive *)
        | Sat_atpg.Detected cube, (Podem.Detected _ | Podem.Aborted) ->
            let v = Cube.fill_const false cube in
            Alcotest.(check bool) (name ^ ": SAT vector verified") true
              (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault)
        | Sat_atpg.Untestable, (Podem.Untestable | Podem.Aborted) -> ()
        | Sat_atpg.Detected _, Podem.Untestable ->
            Alcotest.fail (name ^ ": PODEM under-approximated")
        | Sat_atpg.Untestable, Podem.Detected _ ->
            Alcotest.fail (name ^ ": PODEM over-approximated")
      end)
    faults

let test_sat_atpg_constraints () =
  (* The D/0 example from the PODEM tests: activation needs A = B = 1, so
     pinning A to 0 must yield a redundancy proof. *)
  let d0 = Tvs_circuits.Fig1.paper_fault fig1 "D/0" in
  let constraints = [| Ternary.Zero; Ternary.X; Ternary.X |] in
  (match Sat_atpg.generate ~constraints fig1 d0 with
  | Sat_atpg.Untestable -> ()
  | Sat_atpg.Detected _ | Sat_atpg.Unknown -> Alcotest.fail "unactivatable under A = 0");
  (* And with compatible constraints the cube honours them. *)
  let constraints = [| Ternary.One; Ternary.X; Ternary.X |] in
  match Sat_atpg.generate ~constraints fig1 d0 with
  | Sat_atpg.Detected cube ->
      Alcotest.(check char) "cell 0 honoured" '1' (Ternary.to_char cube.Cube.scan.(0))
  | Sat_atpg.Untestable | Sat_atpg.Unknown -> Alcotest.fail "testable under A = 1"

(* --- constrained PODEM on the engine's own cycles --------------------------

   The constraint cubes the stitching engine actually poses: a checkpoint
   after every cycle, restored into a private machine, yields the
   constraints of the cycle about to run, paired with a seeded sample of its
   uncaught faults. [every] keeps one cycle in that many. *)

module Prep = Tvs_harness.Prep
module Experiments = Tvs_harness.Experiments
module Engine = Tvs_core.Engine
module Cycle = Tvs_core.Cycle

let engine_cycles ~every ~sample circuit =
  let prep = Prep.of_circuit circuit in
  let config = Experiments.config_for prep in
  let machine = Cycle.create ~scheme:config.Engine.scheme circuit ~faults:prep.Prep.testable in
  let rng = Rng.of_string ("cycles:" ^ Circuit.name circuit) in
  let cycles = ref [] and seen = ref 0 in
  let save (snap : Engine.snapshot) =
    incr seen;
    if !seen mod every = 0 then begin
      Cycle.restore machine snap.Engine.machine;
      let uncaught = Array.of_list (Cycle.uncaught_indices machine) in
      Rng.shuffle rng uncaught;
      let picked = Array.sub uncaught 0 (min sample (Array.length uncaught)) in
      cycles :=
        ( Cycle.constraints_for machine ~s:snap.Engine.current_s,
          Array.map (fun i -> prep.Prep.testable.(i)) picked )
        :: !cycles
    end
  in
  ignore (Experiments.run_flow ~checkpoint:(1, save) ~label:"cli" prep);
  (prep, config, List.rev !cycles)

let test_constrained_cross_validation () =
  (* Every PODEM cube honours the constraints and detects its fault under
     both constant fills; every PODEM [Untestable] is either confirmed by
     SAT under the same constraints or left undecided by SAT's budget —
     never contradicted. *)
  let confirmed = ref 0 and undecided = ref 0 and cubes = ref 0 in
  List.iter
    (fun (circuit, every) ->
      let prep, config, cycles = engine_cycles ~every ~sample:8 circuit in
      let sim = Fault_sim.create circuit in
      List.iter
        (fun (constraints, faults) ->
          Array.iter
            (fun fault ->
              let name = Circuit.name circuit ^ " " ^ Fault.name circuit fault in
              match Podem.generate ~config:config.Engine.podem ~constraints prep.Prep.ctx fault with
              | Podem.Detected cube ->
                  incr cubes;
                  Array.iteri
                    (fun i v ->
                      if Ternary.is_specified v && not (Ternary.equal v cube.Cube.scan.(i)) then
                        Alcotest.failf "%s: cube ignores the constraint on cell %d" name i)
                    constraints;
                  List.iter
                    (fun fill ->
                      let v = Cube.fill_const fill cube in
                      if not (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault) then
                        Alcotest.failf "%s: cube filled with %b misses the fault" name fill)
                    [ false; true ]
              | Podem.Untestable -> (
                  match Sat_atpg.generate ~constraints ~max_decisions:20_000 circuit fault with
                  | Sat_atpg.Untestable -> incr confirmed
                  | Sat_atpg.Unknown -> incr undecided
                  | Sat_atpg.Detected cube ->
                      Alcotest.failf "%s: PODEM untestable, SAT found %s" name (Cube.to_string cube))
              | Podem.Aborted -> ())
            faults)
        cycles)
    [ (s27, 1); (Tvs_circuits.Synth.generate_named "s444", 4) ];
  Alcotest.(check bool) "cubes checked" true (!cubes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "most untestables confirmed (%d confirmed, %d undecided)" !confirmed !undecided)
    true
    (!confirmed > 0 && !undecided * 10 < !confirmed)

let () =
  Alcotest.run "sat-atpg"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial cases" `Quick test_sat_trivial;
          Alcotest.test_case "units and conflicts" `Quick test_sat_units_and_conflict;
          Alcotest.test_case "pigeonhole 3/2" `Quick test_sat_pigeonhole_3_2;
          Alcotest.test_case "random models verified" `Quick test_sat_models_verified;
          Alcotest.test_case "literal validation" `Quick test_sat_rejects_bad_literal;
        ] );
      ( "atpg",
        [
          Alcotest.test_case "fig1 faults" `Quick test_sat_atpg_fig1;
          Alcotest.test_case "constraints" `Quick test_sat_atpg_constraints;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "PODEM agreement on fig1" `Quick test_cross_validation_fig1;
          Alcotest.test_case "PODEM agreement on s27" `Quick test_cross_validation_s27;
          Alcotest.test_case "PODEM agreement on s444 sample" `Quick test_cross_validation_synth;
          Alcotest.test_case "constrained PODEM on engine cycles" `Quick
            test_constrained_cross_validation;
        ] );
    ]
