(* Unit tests for Tvs_core: policies, info ratios, the Cycle fault-set
   machine's invariants, and Engine behaviour on small circuits. *)

module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Cost = Tvs_scan.Cost
module Policy = Tvs_core.Policy
module Info_ratio = Tvs_core.Info_ratio
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine
module Baseline = Tvs_core.Baseline
module Rng = Tvs_util.Rng

(* --- policy ----------------------------------------------------------- *)

let test_policy_grow () =
  let fixed = Policy.Fixed 5 in
  Alcotest.(check (option int)) "fixed cannot grow" None (Policy.grow fixed ~current:5);
  let var = Policy.Variable { initial = 2; growth = Policy.Double; max = 16; decay = false } in
  Alcotest.(check (option int)) "doubles" (Some 4) (Policy.grow var ~current:2);
  Alcotest.(check (option int)) "clamps at max" (Some 16) (Policy.grow var ~current:10);
  Alcotest.(check (option int)) "stops at max" None (Policy.grow var ~current:16);
  let add = Policy.Variable { initial = 2; growth = Policy.Add 3; max = 10; decay = false } in
  Alcotest.(check (option int)) "additive" (Some 5) (Policy.grow add ~current:2)

let test_policy_shrink () =
  let var = Policy.Variable { initial = 2; growth = Policy.Double; max = 16; decay = true } in
  Alcotest.(check int) "halves back" 4 (Policy.shrink var ~current:8);
  Alcotest.(check int) "floors at initial" 2 (Policy.shrink var ~current:3);
  let frozen = Policy.Variable { initial = 2; growth = Policy.Double; max = 16; decay = false } in
  Alcotest.(check int) "no decay" 8 (Policy.shrink frozen ~current:8);
  Alcotest.(check int) "fixed pinned" 5 (Policy.shrink (Policy.Fixed 5) ~current:9)

let test_policy_describe () =
  Alcotest.(check string) "fixed" "fixed:7" (Policy.describe_shift (Policy.Fixed 7));
  Alcotest.(check string) "selection" "most-faults:5" (Policy.describe_selection (Policy.Most_faults 5))

(* --- info ratio -------------------------------------------------------- *)

let test_info_ratio_attainable () =
  (* s444-like: 3 PIs, 21 cells. 3/8 of 24 = 9 -> s = 6. *)
  Alcotest.(check (option int)) "s444 3/8" (Some 6)
    (Info_ratio.shift_for ~num:3 ~den:8 ~chain_len:21 ~npi:3);
  Alcotest.(check (option int)) "s444 7/8" (Some 18)
    (Info_ratio.shift_for ~num:7 ~den:8 ~chain_len:21 ~npi:3)

let test_info_ratio_unattainable () =
  (* s641-like: 35 PIs dominate a 19-cell chain; 3/8 is out of reach, the
     paper prints '/'. *)
  Alcotest.(check (option int)) "s641 3/8 unattainable" None
    (Info_ratio.shift_for ~num:3 ~den:8 ~chain_len:19 ~npi:35);
  (* 5/8 clamps to s = 1 within tolerance, the paper's 1/19 entry. *)
  Alcotest.(check (option int)) "s641 5/8 clamps to 1" (Some 1)
    (Info_ratio.shift_for ~num:5 ~den:8 ~chain_len:19 ~npi:35)

let test_info_of () =
  Alcotest.(check (float 0.0001)) "info value" 0.375 (Info_ratio.info_of ~s:6 ~chain_len:21 ~npi:3)

(* --- cycle machine ------------------------------------------------------ *)

let s27 = Tvs_circuits.S27.circuit ()

let test_cycle_partition_invariant () =
  (* caught + hidden + uncaught = total after any number of steps, and the
     caught count never decreases. *)
  let faults = Fault_gen.collapsed s27 in
  let machine = Cycle.create s27 ~faults in
  let rng = Rng.of_string "cycle-inv" in
  let total = Array.length faults in
  let prev_caught = ref 0 in
  for step = 1 to 30 do
    let s = 1 + Rng.int rng (Circuit.num_flops s27) in
    let pi = Array.init (Circuit.num_inputs s27) (fun _ -> Rng.bool rng) in
    let fresh = Array.init s (fun _ -> Rng.bool rng) in
    ignore (Cycle.step machine ~pi ~fresh);
    let c = Cycle.num_caught machine
    and h = Cycle.num_hidden machine
    and u = Cycle.num_uncaught machine in
    Alcotest.(check int) (Printf.sprintf "partition at step %d" step) total (c + h + u);
    Alcotest.(check bool) "caught monotone" true (c >= !prev_caught);
    prev_caught := c
  done

let test_cycle_flush_empties_hidden () =
  let faults = Fault_gen.collapsed s27 in
  let machine = Cycle.create s27 ~faults in
  let rng = Rng.of_string "flush" in
  for _ = 1 to 5 do
    let pi = Array.init (Circuit.num_inputs s27) (fun _ -> Rng.bool rng) in
    let fresh = Array.init 1 (fun _ -> Rng.bool rng) in
    ignore (Cycle.step machine ~pi ~fresh)
  done;
  ignore (Cycle.flush machine ~full:true);
  Alcotest.(check int) "no hidden after full drain" 0 (Cycle.num_hidden machine)

let test_cycle_constraints () =
  let faults = Fault_gen.collapsed s27 in
  let machine = Cycle.create s27 ~faults in
  let pi = Array.make (Circuit.num_inputs s27) false in
  ignore (Cycle.step machine ~pi ~fresh:(Array.make 3 true));
  let contents = Array.copy (Cycle.good_contents machine) in
  let c = Cycle.constraints_for machine ~s:2 in
  Alcotest.(check char) "cell 0 free" 'X' (Ternary.to_char c.(0));
  Alcotest.(check char) "cell 1 free" 'X' (Ternary.to_char c.(1));
  Alcotest.(check char) "cell 2 pinned to retained response"
    (if contents.(0) then '1' else '0')
    (Ternary.to_char c.(2))

let test_cycle_shift_too_big () =
  let faults = Fault_gen.collapsed s27 in
  let machine = Cycle.create s27 ~faults in
  Alcotest.(check bool) "oversized shift rejected" true
    (try
       ignore (Cycle.step machine ~pi:(Array.make 4 false) ~fresh:(Array.make 9 false));
       false
     with Invalid_argument _ -> true)

(* The maintained counts and f_u list against a fresh fold of the exported
   fault states. *)
let check_books what machine =
  let caught = ref 0 and hidden = ref 0 and uncaught = ref [] in
  let states = (Cycle.export machine).Cycle.states in
  for i = Array.length states - 1 downto 0 do
    match states.(i) with
    | Cycle.Fs_caught _ -> incr caught
    | Cycle.Fs_hidden _ -> incr hidden
    | Cycle.Fs_uncaught -> uncaught := i :: !uncaught
  done;
  Alcotest.(check (triple int int int))
    (what ^ ": counts")
    (!caught, !hidden, List.length !uncaught)
    (Cycle.num_caught machine, Cycle.num_hidden machine, Cycle.num_uncaught machine);
  Alcotest.(check (list int))
    (what ^ ": uncaught indices")
    !uncaught (Cycle.uncaught_indices machine)

let test_cycle_incremental_books () =
  (* Random steps, partial flushes and rewinds to an older snapshot on one
     machine, each mirrored into a second machine by export/restore. *)
  List.iter
    (fun c ->
      let faults = Fault_gen.collapsed c in
      let machine = Cycle.create c ~faults and mirror = Cycle.create c ~faults in
      let rng = Rng.of_string ("books:" ^ Circuit.name c) in
      let saved = ref (Cycle.export machine) in
      for op = 1 to 40 do
        (match Rng.int rng 6 with
        | 0 -> ignore (Cycle.flush machine ~full:false)
        | 1 -> Cycle.restore machine !saved
        | 2 -> saved := Cycle.export machine
        | _ ->
            let s = 1 + Rng.int rng (Circuit.num_flops c) in
            let pi = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
            ignore (Cycle.step machine ~pi ~fresh:(Array.init s (fun _ -> Rng.bool rng))));
        Cycle.restore mirror (Cycle.export machine);
        let what = Printf.sprintf "%s op %d" (Circuit.name c) op in
        check_books what machine;
        check_books (what ^ " (restored)") mirror
      done)
    [ s27; Tvs_circuits.Synth.generate_named "s444" ]

(* --- engine -------------------------------------------------------------- *)

let prep () =
  let faults = Fault_gen.collapsed s27 in
  let ctx = Podem.create s27 in
  let baseline = Baseline.run ~rng:(Rng.of_string "core:baseline") ctx ~faults in
  (ctx, Baseline.testable_faults baseline faults, baseline)

let test_engine_first_shift_full () =
  let ctx, faults, baseline = prep () in
  let r =
    Engine.run ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "eng") ctx ~faults
  in
  (match r.Engine.schedule.Cost.shifts with
  | first :: _ -> Alcotest.(check int) "first load is full" (Circuit.num_flops s27) first
  | [] -> Alcotest.fail "no stitched vectors");
  Alcotest.(check int) "stimuli match schedule" r.Engine.stitched_vectors
    (List.length r.Engine.stimuli)

let test_engine_counts_consistent () =
  let ctx, faults, baseline = prep () in
  let r = Engine.run ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "eng2") ctx ~faults in
  Alcotest.(check int) "all faults accounted"
    (Array.length faults)
    (r.Engine.caught_stitched + r.Engine.caught_extra + List.length r.Engine.redundant
   + List.length r.Engine.aborted);
  Alcotest.(check bool) "coverage in [0,1]" true
    (Engine.coverage r >= 0.0 && Engine.coverage r <= 1.0001)

let test_engine_respects_max_cycles () =
  let ctx, faults, baseline = prep () in
  let chain_len = Circuit.num_flops s27 in
  let config = { (Engine.default_config ~chain_len) with max_cycles = 2 } in
  let r =
    Engine.run ~config ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "eng3") ctx ~faults
  in
  Alcotest.(check bool) "at most 2 stitched vectors" true (r.Engine.stitched_vectors <= 2)

let test_engine_hxor_taps_more_observable () =
  (* More taps never lose coverage. *)
  let ctx, faults, baseline = prep () in
  let chain_len = Circuit.num_flops s27 in
  List.iter
    (fun taps ->
      let config =
        { (Engine.default_config ~chain_len) with scheme = Tvs_scan.Xor_scheme.Hxor taps }
      in
      let r =
        Engine.run ~config ~fallback:baseline.Baseline.vectors ~rng:(Rng.of_string "hx") ctx ~faults
      in
      Alcotest.(check (float 0.0001)) (Printf.sprintf "coverage with %d taps" taps) 1.0
        (Engine.coverage r))
    [ 1; 2; 3 ]

let qcheck_info_ratio_monotone =
  QCheck.Test.make ~name:"info value increases with shift size" ~count:200
    QCheck.(triple (int_range 2 64) (int_range 0 64) (int_range 1 62))
    (fun (chain_len, npi, s) ->
      let s = min s (chain_len - 1) in
      Info_ratio.info_of ~s ~chain_len ~npi < Info_ratio.info_of ~s:(s + 1) ~chain_len ~npi)

let qcheck_info_ratio_attained_accuracy =
  QCheck.Test.make ~name:"attained info within tolerance of target" ~count:200
    QCheck.(triple (int_range 2 128) (int_range 0 64) (int_range 1 7))
    (fun (chain_len, npi, num) ->
      match Info_ratio.shift_for ~num ~den:8 ~chain_len ~npi with
      | None -> true
      | Some s ->
          s >= 1 && s <= chain_len
          && Float.abs (Info_ratio.info_of ~s ~chain_len ~npi -. (float_of_int num /. 8.0))
             <= Info_ratio.tolerance +. 1e-9)

let qcheck_cost_oracle =
  (* Neither time nor memory is monotone in the vector count (a trailing
     small-shift vector shrinks the final unload and the observed response -
     the essence of the compression), so the meaningful check is an
     independent recomputation: time = all loads + final unload; memory =
     scan-in bits + observed response bits + per-vector I/O. *)
  QCheck.Test.make ~name:"cost model matches a direct recomputation" ~count:300
    QCheck.(triple (int_range 1 40) (pair (int_range 0 3) (int_range 0 3))
              (list_of_size Gen.(int_range 1 20) (int_range 1 40)))
    (fun (chain_len, (npi, npo), shifts) ->
      let shifts = List.map (fun s -> min s chain_len) shifts in
      let sched = { Cost.chain_len; npi; npo; shifts; extra = 0; full_drain = false } in
      let total = List.fold_left ( + ) 0 shifts in
      let last = List.nth shifts (List.length shifts - 1) in
      let n = List.length shifts in
      let expected_time = total + last in
      (* Response i is observed during load i+1; the last during the final
         partial unload of [last] cycles. *)
      let observed = total - List.hd shifts + last in
      let expected_memory = total + observed + (n * (npi + npo)) in
      Cost.time sched = expected_time && Cost.memory sched = expected_memory)

let () =
  Alcotest.run "core"
    [
      ( "policy",
        [
          Alcotest.test_case "grow" `Quick test_policy_grow;
          Alcotest.test_case "shrink" `Quick test_policy_shrink;
          Alcotest.test_case "describe" `Quick test_policy_describe;
        ] );
      ( "info-ratio",
        [
          Alcotest.test_case "attainable shifts" `Quick test_info_ratio_attainable;
          Alcotest.test_case "unattainable marked" `Quick test_info_ratio_unattainable;
          Alcotest.test_case "info value" `Quick test_info_of;
        ] );
      ( "cycle",
        [
          Alcotest.test_case "partition invariant" `Quick test_cycle_partition_invariant;
          Alcotest.test_case "flush empties hidden" `Quick test_cycle_flush_empties_hidden;
          Alcotest.test_case "constraint cube" `Quick test_cycle_constraints;
          Alcotest.test_case "oversized shift rejected" `Quick test_cycle_shift_too_big;
          Alcotest.test_case "incremental counts and f_u list" `Quick test_cycle_incremental_books;
        ] );
      ( "engine",
        [
          Alcotest.test_case "first shift is a full load" `Quick test_engine_first_shift_full;
          Alcotest.test_case "fault accounting" `Quick test_engine_counts_consistent;
          Alcotest.test_case "max cycles respected" `Quick test_engine_respects_max_cycles;
          Alcotest.test_case "hxor coverage" `Quick test_engine_hxor_taps_more_observable;
          QCheck_alcotest.to_alcotest qcheck_info_ratio_monotone;
          QCheck_alcotest.to_alcotest qcheck_info_ratio_attained_accuracy;
          QCheck_alcotest.to_alcotest qcheck_cost_oracle;
        ] );
    ]
