(* Unit tests for Tvs_atpg: cubes, SCOAP, PODEM (unconstrained and
   constrained) and the full test-set generator. *)

module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Ternary = Tvs_logic.Ternary
module Fivev = Tvs_logic.Fivev
module Soa = Tvs_sim.Soa
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Cube = Tvs_atpg.Cube
module Scoap = Tvs_atpg.Scoap
module Podem = Tvs_atpg.Podem
module Kernel = Tvs_atpg.Fivev_kernel
module Generator = Tvs_atpg.Generator
module Rng = Tvs_util.Rng

let s27 = Tvs_circuits.S27.circuit ()
let fig1 = Tvs_circuits.Fig1.circuit ()

(* --- cubes ----------------------------------------------------------- *)

let cube_of pi scan : Cube.t =
  {
    Cube.pi = Array.init (String.length pi) (fun i -> Ternary.of_char pi.[i]);
    scan = Array.init (String.length scan) (fun i -> Ternary.of_char scan.[i]);
  }

let test_cube_basics () =
  let c = Cube.fully_x s27 in
  Alcotest.(check int) "no specified bits" 0 (Cube.specified_bits c);
  Alcotest.(check int) "total bits" 7 (Cube.total_bits c);
  Alcotest.(check string) "render" "XXXX|XXX" (Cube.to_string c)

let test_cube_merge () =
  let a = cube_of "1X" "X0" and b = cube_of "X0" "X0" in
  (match Cube.merge a b with
  | Some m -> Alcotest.(check string) "merged" "10|X0" (Cube.to_string m)
  | None -> Alcotest.fail "expected a merge");
  let conflict = cube_of "0X" "XX" in
  Alcotest.(check bool) "conflict detected" true (Cube.merge a conflict = None);
  Alcotest.(check bool) "compatible agrees" false (Cube.compatible a conflict)

let test_cube_fill () =
  let c = cube_of "1X0" "X1" in
  let v = Cube.fill_const false c in
  Alcotest.(check (array bool)) "pi filled" [| true; false; false |] v.Cube.pi;
  Alcotest.(check (array bool)) "scan filled" [| false; true |] v.Cube.scan;
  let rng = Rng.of_string "fill" in
  let v2 = Cube.fill_random rng c in
  Alcotest.(check bool) "specified bits preserved" true
    (v2.Cube.pi.(0) && (not v2.Cube.pi.(2)) && v2.Cube.scan.(1))

let qcheck_merge_specified =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (string_size ~gen:(oneofl [ '0'; '1'; 'X' ]) (return 6))
          (string_size ~gen:(oneofl [ '0'; '1'; 'X' ]) (return 4)))
  in
  QCheck.Test.make ~name:"merge has at least max(specified) bits" ~count:200 (QCheck.pair arb arb)
    (fun ((p1, s1), (p2, s2)) ->
      let a = cube_of p1 s1 and b = cube_of p2 s2 in
      match Cube.merge a b with
      | None -> not (Cube.compatible a b)
      | Some m ->
          Cube.compatible a b
          && Cube.specified_bits m >= max (Cube.specified_bits a) (Cube.specified_bits b))

(* --- SCOAP ----------------------------------------------------------- *)

let test_scoap_chain () =
  (* a -> NOT g1 -> NOT g2: CC0/CC1 grow by one per level. *)
  let b = Circuit.Builder.create "chain" in
  let a = Circuit.Builder.input b "a" in
  let g1 = Circuit.Builder.gate b ~name:"g1" Gate.Not [ a ] in
  let g2 = Circuit.Builder.gate b ~name:"g2" Gate.Not [ g1 ] in
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finish b in
  let t = Scoap.compute c in
  Alcotest.(check int) "input cc0" 1 (Scoap.cc0 t a);
  Alcotest.(check int) "g1 cc0 = cc1(a)+1" 2 (Scoap.cc0 t g1);
  Alcotest.(check int) "g2 cc0 = cc0(a)+2" 3 (Scoap.cc0 t g2);
  Alcotest.(check int) "output observable free" 0 (Scoap.co_stem t g2);
  Alcotest.(check int) "a co = 2 inversions" 2 (Scoap.co_stem t a)

let test_scoap_and_gate () =
  let b = Circuit.Builder.create "and3" in
  let x = Circuit.Builder.input b "x" in
  let y = Circuit.Builder.input b "y" in
  let z = Circuit.Builder.input b "z" in
  let g = Circuit.Builder.gate b ~name:"g" Gate.And [ x; y; z ] in
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finish b in
  let t = Scoap.compute c in
  Alcotest.(check int) "cc1 = sum + 1" 4 (Scoap.cc1 t g);
  Alcotest.(check int) "cc0 = min + 1" 2 (Scoap.cc0 t g);
  (* Observing x requires y = z = 1: co = 0 + 1 + 1 + 1. *)
  Alcotest.(check int) "co of input" 3 (Scoap.co_stem t x)

let test_scoap_hardness_orders () =
  (* In s27 a redundant-ish deep fault should not be easier than a direct
     input fault; just check hardness is finite for testable sites and
     monotone with depth on a chain. *)
  let t = Scoap.compute s27 in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "finite hardness" true (Scoap.fault_hardness t f < Scoap.unreachable))
    (Fault_gen.collapsed s27)

(* --- five-valued kernel ------------------------------------------------ *)

let fivev_values = [ Fivev.Zero; Fivev.One; Fivev.D; Fivev.Dbar; Fivev.X ]

(* One gate of [kind] over [n] primary inputs. *)
let single_gate kind n =
  let b = Circuit.Builder.create "single" in
  let ins = List.init n (fun i -> Circuit.Builder.input b (Printf.sprintf "i%d" i)) in
  let g = Circuit.Builder.gate b ~name:"g" kind ins in
  Circuit.Builder.mark_output b g;
  (Circuit.Builder.finish b, Array.of_list ins, g)

let test_kernel_matches_eval_fivev () =
  (* The table fold against the [Gate.eval_fivev] oracle: every kind, every
     legal arity up to 4, every input tuple, plus every single-pin override
     of [eval_pin]. *)
  List.iter
    (fun kind ->
      let arities =
        match kind with
        | Gate.Not | Gate.Buf -> [ 1 ]
        | Gate.Xor | Gate.Xnor -> [ 2; 3; 4 ]
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> [ 1; 2; 3; 4 ]
      in
      List.iter
        (fun n ->
          let c, ins, g = single_gate kind n in
          let soa = Soa.create c in
          let values = Bytes.make (Circuit.num_nets c) '\000' in
          let tuple = Array.make n Fivev.Zero in
          let label () =
            Printf.sprintf "%s(%s)" (Gate.to_string kind)
              (String.concat "," (Array.to_list (Array.map Fivev.to_string tuple)))
          in
          let check () =
            Array.iteri (fun i net -> Bytes.set values net (Char.chr (Kernel.code tuple.(i)))) ins;
            Alcotest.(check string) (label ())
              (Fivev.to_string (Gate.eval_fivev kind tuple))
              (Fivev.to_string (Kernel.of_code (Kernel.eval soa values g)));
            for pin = 0 to n - 1 do
              List.iter
                (fun v ->
                  let forced = Array.copy tuple in
                  forced.(pin) <- v;
                  let got = Kernel.eval_pin soa values g ~pin (Kernel.code v) in
                  if not (Fivev.equal (Gate.eval_fivev kind forced) (Kernel.of_code got)) then
                    Alcotest.failf "%s with pin %d forced to %s" (label ()) pin (Fivev.to_string v))
                fivev_values
            done
          in
          let rec each i =
            if i = n then check ()
            else
              List.iter
                (fun v ->
                  tuple.(i) <- v;
                  each (i + 1))
                fivev_values
          in
          each 0)
        arities)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf ]

let test_kernel_constants_and_site () =
  let b = Circuit.Builder.create "consts" in
  let k0 = Circuit.Builder.const b ~name:"k0" false and k1 = Circuit.Builder.const b ~name:"k1" true in
  let c = Circuit.Builder.finish b in
  let soa = Soa.create c in
  let values = Bytes.make (Circuit.num_nets c) (Char.chr Kernel.x) in
  Alcotest.(check int) "const 0" Kernel.zero (Kernel.eval soa values k0);
  Alcotest.(check int) "const 1" Kernel.one (Kernel.eval soa values k1);
  (* The site value pairs the fault-free half with the stuck value. *)
  List.iter
    (fun v ->
      List.iter
        (fun stuck ->
          let expected =
            match Fivev.good v with
            | Ternary.X -> Fivev.X
            | g -> Fivev.of_pair g (Ternary.of_bool stuck)
          in
          Alcotest.(check string)
            (Printf.sprintf "site %b %s" stuck (Fivev.to_string v))
            (Fivev.to_string expected)
            (Fivev.to_string (Kernel.of_code (Kernel.site stuck (Kernel.code v)))))
        [ false; true ])
    fivev_values

(* --- PODEM ----------------------------------------------------------- *)

let verify_cube_detects circuit fault cube =
  (* Any fill of a PODEM cube must detect the fault under full observability. *)
  let sim = Fault_sim.create circuit in
  List.for_all
    (fun fill ->
      let v = fill cube in
      Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault)
    [ Cube.fill_const false; Cube.fill_const true; Cube.fill_random (Rng.of_string "verify") ]

let test_podem_finds_all_fig1 () =
  let ctx = Podem.create fig1 in
  List.iter
    (fun name ->
      let fault = Tvs_circuits.Fig1.paper_fault fig1 name in
      match Podem.generate ctx fault with
      | Podem.Detected cube ->
          Alcotest.(check bool) (name ^ " cube detects under any fill") true
            (verify_cube_detects fig1 fault cube)
      | Podem.Untestable -> Alcotest.fail (name ^ " wrongly declared untestable")
      | Podem.Aborted -> Alcotest.fail (name ^ " aborted"))
    (List.filter (fun n -> n <> "E-F/1") Tvs_circuits.Fig1.table1_faults)

let test_podem_redundant () =
  let ctx = Podem.create fig1 in
  let ef1 = Tvs_circuits.Fig1.paper_fault fig1 "E-F/1" in
  (match Podem.generate ctx ef1 with
  | Podem.Untestable -> ()
  | Podem.Detected _ -> Alcotest.fail "E-F/1 is redundant, no test exists"
  | Podem.Aborted -> Alcotest.fail "search space is tiny, must not abort")

let test_podem_all_s27 () =
  let ctx = Podem.create s27 in
  let sim = Fault_sim.create s27 in
  let ok = ref 0 and untestable = ref 0 in
  Array.iter
    (fun fault ->
      match Podem.generate ctx fault with
      | Podem.Detected cube ->
          let v = Cube.fill_const false cube in
          Alcotest.(check bool)
            (Fault.name s27 fault ^ " vector verified by simulation")
            true
            (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault);
          incr ok
      | Podem.Untestable -> incr untestable
      | Podem.Aborted -> Alcotest.fail "s27 must not abort")
    (Fault_gen.collapsed s27);
  Alcotest.(check bool) "most faults testable" true (!ok > 25)

let test_podem_constraints_respected () =
  let ctx = Podem.create s27 in
  let nflops = Circuit.num_flops s27 in
  let constraints = Array.make nflops Ternary.X in
  constraints.(0) <- Ternary.Zero;
  constraints.(2) <- Ternary.One;
  Array.iter
    (fun fault ->
      match Podem.generate ~constraints ctx fault with
      | Podem.Detected cube ->
          Alcotest.(check char) "cell 0 pinned" '0' (Ternary.to_char cube.Cube.scan.(0));
          Alcotest.(check char) "cell 2 pinned" '1' (Ternary.to_char cube.Cube.scan.(2))
      | Podem.Untestable | Podem.Aborted -> ())
    (Fault_gen.collapsed s27)

let test_podem_constrained_detection () =
  (* Constrained cubes must still detect their fault when the constraint is
     part of the applied state. *)
  let ctx = Podem.create s27 in
  let sim = Fault_sim.create s27 in
  let constraints = [| Ternary.One; Ternary.X; Ternary.Zero |] in
  Array.iter
    (fun fault ->
      match Podem.generate ~constraints ctx fault with
      | Podem.Detected cube ->
          let v = Cube.fill_random (Rng.of_string "cd") cube in
          Alcotest.(check bool)
            (Fault.name s27 fault ^ " constrained vector detects")
            true
            (Fault_sim.detects sim ~pi:v.Cube.pi ~state:v.Cube.scan fault)
      | Podem.Untestable | Podem.Aborted -> ())
    (Fault_gen.collapsed s27)

let test_podem_impossible_constraints () =
  (* Constrain every scan cell and pick a fault whose activation needs one of
     them inverted: PODEM must return Untestable, not an incorrect cube.
     fig1's D/0 needs A = B = 1; pin A to 0. *)
  let ctx = Podem.create fig1 in
  let d0 = Tvs_circuits.Fig1.paper_fault fig1 "D/0" in
  let constraints = [| Ternary.Zero; Ternary.X; Ternary.X |] in
  (match Podem.generate ~constraints ctx d0 with
  | Podem.Untestable -> ()
  | Podem.Detected _ -> Alcotest.fail "D/0 cannot be activated with A = 0"
  | Podem.Aborted -> Alcotest.fail "tiny space, must not abort")

let test_podem_memo_tracks_contents () =
  (* The fault-free memo is keyed on the constraint contents: a caller that
     mutates and reuses one array must not get the old contents'
     implications. D/0 needs A = 1, so it turns untestable once A = 0. *)
  let ctx = Podem.create fig1 in
  let d0 = Tvs_circuits.Fig1.paper_fault fig1 "D/0" in
  let constraints = [| Ternary.One; Ternary.X; Ternary.X |] in
  (match Podem.generate ~constraints ctx d0 with
  | Podem.Detected _ -> ()
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "D/0 is testable with A = 1");
  constraints.(0) <- Ternary.Zero;
  match Podem.generate ~constraints ctx d0 with
  | Podem.Untestable -> ()
  | Podem.Detected cube -> Alcotest.fail ("stale memo: D/0 detected by " ^ Cube.to_string cube)
  | Podem.Aborted -> Alcotest.fail "tiny space, must not abort"

let test_podem_deterministic () =
  let ctx = Podem.create s27 in
  let fault = (Fault_gen.collapsed s27).(5) in
  let r1 = Podem.generate ctx fault and r2 = Podem.generate ctx fault in
  (match (r1, r2) with
  | Podem.Detected a, Podem.Detected b ->
      Alcotest.(check string) "same cube" (Cube.to_string a) (Cube.to_string b)
  | _ -> Alcotest.fail "expected detections")

(* --- generator -------------------------------------------------------- *)

let test_generator_s27_coverage () =
  let ctx = Podem.create s27 in
  let faults = Fault_gen.collapsed s27 in
  let gen = Generator.generate ~rng:(Rng.of_string "gen") ctx faults in
  Alcotest.(check (float 0.0001)) "full coverage" 1.0 (Generator.coverage gen);
  Alcotest.(check bool) "fewer vectors than faults" true
    (Generator.num_vectors gen < Array.length faults);
  (* Re-simulate the final set: every non-redundant fault detected. *)
  let sim = Fault_sim.create s27 in
  let detected = Array.make (Array.length faults) false in
  Array.iter
    (fun (v : Cube.vector) ->
      Array.iteri
        (fun i hit -> if hit then detected.(i) <- true)
        (Fault_sim.detected_faults sim ~pi:v.Cube.pi ~state:v.Cube.scan faults))
    gen.Generator.vectors;
  Array.iteri
    (fun i hit ->
      let redundant = List.exists (Fault.equal faults.(i)) gen.Generator.redundant in
      let aborted = List.exists (Fault.equal faults.(i)) gen.Generator.aborted in
      if not (redundant || aborted) then
        Alcotest.(check bool) (Fault.name s27 faults.(i) ^ " re-simulates as caught") true hit)
    detected

let test_generator_compaction_shrinks () =
  let ctx = Podem.create s27 in
  let faults = Fault_gen.collapsed s27 in
  let run compaction =
    let options = { Generator.default_options with compaction; random_patterns = 0 } in
    Generator.generate ~options ~rng:(Rng.of_string "cmp") ctx faults
  in
  let with_c = run true and without_c = run false in
  Alcotest.(check bool) "compaction does not grow the set" true
    (Generator.num_vectors with_c <= Generator.num_vectors without_c);
  Alcotest.(check (float 0.0001)) "coverage kept" 1.0 (Generator.coverage with_c)

let test_generator_dropping_effect () =
  let ctx = Podem.create s27 in
  let faults = Fault_gen.collapsed s27 in
  let run fault_dropping =
    let options =
      { Generator.default_options with fault_dropping; random_patterns = 0; compaction = false }
    in
    Generator.generate ~options ~rng:(Rng.of_string "drop") ctx faults
  in
  Alcotest.(check bool) "dropping saves vectors" true
    (Generator.num_vectors (run true) < Generator.num_vectors (run false))

let test_generator_lists_disjoint () =
  let ctx = Podem.create s27 in
  let faults = Fault_gen.collapsed s27 in
  let gen = Generator.generate ~rng:(Rng.of_string "dis") ctx faults in
  List.iter
    (fun f ->
      Alcotest.(check bool) "aborted not also redundant" false
        (List.exists (Fault.equal f) gen.Generator.redundant))
    gen.Generator.aborted

let () =
  Alcotest.run "atpg"
    [
      ( "cube",
        [
          Alcotest.test_case "basics" `Quick test_cube_basics;
          Alcotest.test_case "merge" `Quick test_cube_merge;
          Alcotest.test_case "fill" `Quick test_cube_fill;
          QCheck_alcotest.to_alcotest qcheck_merge_specified;
        ] );
      ( "scoap",
        [
          Alcotest.test_case "inverter chain" `Quick test_scoap_chain;
          Alcotest.test_case "3-input AND" `Quick test_scoap_and_gate;
          Alcotest.test_case "hardness finite on s27" `Quick test_scoap_hardness_orders;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "table fold equals Gate.eval_fivev" `Quick test_kernel_matches_eval_fivev;
          Alcotest.test_case "constants and fault sites" `Quick test_kernel_constants_and_site;
        ] );
      ( "podem",
        [
          Alcotest.test_case "finds all fig1 tests" `Quick test_podem_finds_all_fig1;
          Alcotest.test_case "proves E-F/1 redundant" `Quick test_podem_redundant;
          Alcotest.test_case "verified vectors on s27" `Quick test_podem_all_s27;
          Alcotest.test_case "constraints respected" `Quick test_podem_constraints_respected;
          Alcotest.test_case "constrained detection" `Quick test_podem_constrained_detection;
          Alcotest.test_case "impossible constraints" `Quick test_podem_impossible_constraints;
          Alcotest.test_case "deterministic" `Quick test_podem_deterministic;
          Alcotest.test_case "memo follows constraint contents" `Quick test_podem_memo_tracks_contents;
        ] );
      ( "generator",
        [
          Alcotest.test_case "s27 coverage" `Quick test_generator_s27_coverage;
          Alcotest.test_case "compaction" `Quick test_generator_compaction_shrinks;
          Alcotest.test_case "fault dropping" `Quick test_generator_dropping_effect;
          Alcotest.test_case "result lists disjoint" `Quick test_generator_lists_disjoint;
        ] );
    ]
