(* Unit tests for Tvs_netlist: gates, the circuit IR and builder, the .bench
   reader/writer, levelization, validation and statistics. *)

module Gate = Tvs_netlist.Gate
module Circuit = Tvs_netlist.Circuit
module Bench_format = Tvs_netlist.Bench_format
module Validate = Tvs_netlist.Validate
module Stats = Tvs_netlist.Stats

(* --- gates ---------------------------------------------------------- *)

let test_gate_eval_bool () =
  Alcotest.(check bool) "and" true (Gate.eval_bool Gate.And [| true; true |]);
  Alcotest.(check bool) "nand" true (Gate.eval_bool Gate.Nand [| true; false |]);
  Alcotest.(check bool) "or" true (Gate.eval_bool Gate.Or [| false; true |]);
  Alcotest.(check bool) "nor" true (Gate.eval_bool Gate.Nor [| false; false |]);
  Alcotest.(check bool) "3-input xor parity" true (Gate.eval_bool Gate.Xor [| true; true; true |]);
  Alcotest.(check bool) "xnor" true (Gate.eval_bool Gate.Xnor [| true; true |]);
  Alcotest.(check bool) "not" false (Gate.eval_bool Gate.Not [| true |]);
  Alcotest.(check bool) "buf" true (Gate.eval_bool Gate.Buf [| true |])

let test_gate_strings () =
  List.iter
    (fun kind ->
      Alcotest.(check (option bool))
        (Gate.to_string kind ^ " roundtrip")
        (Some true)
        (Option.map (Gate.equal kind) (Gate.of_string (Gate.to_string kind))))
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf ];
  Alcotest.(check bool) "unknown keyword" true (Gate.of_string "DFF" = None);
  Alcotest.(check bool) "case-insensitive" true (Gate.of_string "nand" = Some Gate.Nand)

let test_gate_arity () =
  Alcotest.(check bool) "NOT unary only" false (Gate.arity_ok Gate.Not 2);
  Alcotest.(check bool) "XOR needs 2+" false (Gate.arity_ok Gate.Xor 1);
  Alcotest.(check bool) "AND accepts 4" true (Gate.arity_ok Gate.And 4)

let test_controlling_inversion () =
  Alcotest.(check (option bool)) "and controls on 0" (Some false) (Gate.controlling_value Gate.And);
  Alcotest.(check (option bool)) "nor controls on 1" (Some true) (Gate.controlling_value Gate.Nor);
  Alcotest.(check (option bool)) "xor has none" None (Gate.controlling_value Gate.Xor);
  Alcotest.(check bool) "nand inverts" true (Gate.inversion Gate.Nand);
  Alcotest.(check bool) "or does not" false (Gate.inversion Gate.Or)

(* --- builder -------------------------------------------------------- *)

let build_simple () =
  let b = Circuit.Builder.create "simple" in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let g = Circuit.Builder.gate b ~name:"g" Gate.And [ a; bb ] in
  Circuit.Builder.mark_output b g;
  Circuit.Builder.finish b

let test_builder_basics () =
  let c = build_simple () in
  Alcotest.(check int) "nets" 3 (Circuit.num_nets c);
  Alcotest.(check int) "inputs" 2 (Circuit.num_inputs c);
  Alcotest.(check int) "outputs" 1 (Circuit.num_outputs c);
  Alcotest.(check int) "find by name" 2 (Circuit.find_net c "g");
  Alcotest.(check bool) "is_output" true (Circuit.is_output c (Circuit.find_net c "g"))

let test_builder_duplicate_name () =
  let b = Circuit.Builder.create "dup" in
  let _ = Circuit.Builder.input b "a" in
  Alcotest.check_raises "duplicate" (Circuit.Build_error "duplicate net name \"a\"") (fun () ->
      ignore (Circuit.Builder.input b "a"))

let test_builder_dangling_flop () =
  let b = Circuit.Builder.create "dangling" in
  let _ = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.flop_forward b "q" in
  ignore q;
  Alcotest.(check bool) "finish fails" true
    (try
       ignore (Circuit.Builder.finish b);
       false
     with Circuit.Build_error _ -> true)

let test_builder_arity_rejected () =
  let b = Circuit.Builder.create "bad-arity" in
  let a = Circuit.Builder.input b "a" in
  Alcotest.(check bool) "NOT with two inputs rejected" true
    (try
       ignore (Circuit.Builder.gate b Gate.Not [ a; a ]);
       false
     with Circuit.Build_error _ -> true)

let test_fanout_structure () =
  let b = Circuit.Builder.create "fan" in
  let a = Circuit.Builder.input b "a" in
  let g1 = Circuit.Builder.gate b ~name:"g1" Gate.Not [ a ] in
  let g2 = Circuit.Builder.gate b ~name:"g2" Gate.And [ a; g1 ] in
  Circuit.Builder.mark_output b g2;
  let c = Circuit.Builder.finish b in
  let fanout_a = Circuit.fanout c (Circuit.find_net c "a") in
  Alcotest.(check int) "a has two consumers" 2 (Array.length fanout_a);
  Alcotest.(check bool) "g2 pin 1 is g1" true
    (Array.mem (Circuit.find_net c "g2", 1) (Circuit.fanout c (Circuit.find_net c "g1")))

let test_levels () =
  let b = Circuit.Builder.create "levels" in
  let a = Circuit.Builder.input b "a" in
  let g1 = Circuit.Builder.gate b ~name:"g1" Gate.Not [ a ] in
  let g2 = Circuit.Builder.gate b ~name:"g2" Gate.Not [ g1 ] in
  let g3 = Circuit.Builder.gate b ~name:"g3" Gate.And [ a; g2 ] in
  Circuit.Builder.mark_output b g3;
  let c = Circuit.Builder.finish b in
  Alcotest.(check int) "source level" 0 (Circuit.level c a);
  Alcotest.(check int) "g1" 1 (Circuit.level c g1);
  Alcotest.(check int) "g2" 2 (Circuit.level c g2);
  Alcotest.(check int) "g3" 3 (Circuit.level c g3);
  Alcotest.(check int) "depth" 3 (Circuit.depth c)

let test_topo_property () =
  let c = Tvs_circuits.S27.circuit () in
  let order = Circuit.topo_order c in
  let position = Array.make (Circuit.num_nets c) (-1) in
  Array.iteri (fun i net -> position.(net) <- i) order;
  Array.iter
    (fun net ->
      match Circuit.driver c net with
      | Circuit.Gate_node (_, ins) ->
          Array.iter
            (fun fanin ->
              match Circuit.driver c fanin with
              | Circuit.Gate_node _ ->
                  Alcotest.(check bool) "fanin precedes gate" true (position.(fanin) < position.(net))
              | Circuit.Primary_input | Circuit.Flip_flop _ | Circuit.Const _ -> ())
            ins
      | Circuit.Primary_input | Circuit.Flip_flop _ | Circuit.Const _ -> ())
    order

(* Sequential loops through flip-flops are fine; combinational ones must be
   rejected at [finish]. A flop-based loop (s27-style) must pass. *)
let test_flop_loop_allowed () =
  let b = Circuit.Builder.create "loop" in
  let q = Circuit.Builder.flop_forward b "q" in
  let g = Circuit.Builder.gate b ~name:"g" Gate.Not [ q ] in
  Circuit.Builder.connect_flop b q g;
  Circuit.Builder.mark_output b g;
  let c = Circuit.Builder.finish b in
  Alcotest.(check int) "one flop" 1 (Circuit.num_flops c)

(* --- bench format --------------------------------------------------- *)

let test_parse_s27 () =
  let c = Bench_format.parse_string ~name:"s27" Tvs_circuits.S27.bench_text in
  Alcotest.(check int) "PI" 4 (Circuit.num_inputs c);
  Alcotest.(check int) "PO" 1 (Circuit.num_outputs c);
  Alcotest.(check int) "FF" 3 (Circuit.num_flops c);
  let stats = Stats.compute c in
  Alcotest.(check int) "gates" 10 stats.Stats.num_gates

let test_parse_roundtrip () =
  let c = Tvs_circuits.S27.circuit () in
  let c2 = Bench_format.parse_string ~name:"s27" (Bench_format.to_string c) in
  let s1 = Stats.compute c and s2 = Stats.compute c2 in
  Alcotest.(check int) "same gates" s1.Stats.num_gates s2.Stats.num_gates;
  Alcotest.(check int) "same flops" s1.Stats.num_flops s2.Stats.num_flops;
  Alcotest.(check int) "same depth" s1.Stats.depth s2.Stats.depth

let expect_parse_error text =
  try
    ignore (Bench_format.parse_string ~name:"bad" text);
    false
  with Bench_format.Parse_error _ -> true

let test_parse_errors () =
  Alcotest.(check bool) "unknown gate" true (expect_parse_error "g = FROB(a)\n");
  Alcotest.(check bool) "missing paren" true (expect_parse_error "INPUT(a\n");
  Alcotest.(check bool) "bad arity" true (expect_parse_error "g = NOT(a, b)\n");
  Alcotest.(check bool) "dff arity" true (expect_parse_error "q = DFF(a, b)\n");
  Alcotest.(check bool) "undefined net" true
    (expect_parse_error "INPUT(a)\nOUTPUT(g)\ng = AND(a, zz)\n");
  Alcotest.(check bool) "combinational cycle" true
    (expect_parse_error "INPUT(a)\nOUTPUT(d)\nd = AND(a, e)\ne = OR(d, a)\n");
  Alcotest.(check bool) "duplicate definition" true
    (expect_parse_error "INPUT(a)\nINPUT(a)\n")

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Duplicate definitions are a parse error naming both lines, whichever
   statement kinds collide. *)
let test_duplicate_definitions () =
  let expect text ~line ~mentions =
    match Bench_format.parse_string ~name:"dup" text with
    | (_ : Circuit.t) -> Alcotest.failf "accepted duplicate: %S" text
    | exception Bench_format.Parse_error (l, msg) ->
        Alcotest.(check int) ("error line for " ^ String.escaped text) line l;
        List.iter
          (fun frag ->
            Alcotest.(check bool)
              (Printf.sprintf "%S mentions %S" msg frag)
              true (string_contains msg frag))
          mentions
  in
  expect "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\ng = BUFF(a)\n" ~line:4
    ~mentions:[ "duplicate definition"; "\"g\""; "line 3" ];
  expect "INPUT(a)\na = NOT(a)\n" ~line:2 ~mentions:[ "duplicate definition"; "line 1" ];
  expect "INPUT(a)\nq = DFF(a)\nq = AND(a, a)\n" ~line:3 ~mentions:[ "\"q\""; "line 2" ];
  expect "INPUT(a)\nOUTPUT(g)\nOUTPUT(g)\ng = NOT(a)\n" ~line:3
    ~mentions:[ "duplicate OUTPUT"; "line 2" ]

let test_parse_forward_reference () =
  (* Gates listed before their fanins, as in real benchmark files. *)
  let text = "INPUT(a)\nOUTPUT(g2)\ng2 = NOT(g1)\ng1 = NOT(a)\n" in
  let c = Bench_format.parse_string ~name:"fwd" text in
  Alcotest.(check int) "three nets" 3 (Circuit.num_nets c)

let test_bench_file_io () =
  let path = Filename.temp_file "tvs" ".bench" in
  Bench_format.write_file path (Tvs_circuits.S27.circuit ());
  let c = Bench_format.parse_file path in
  Sys.remove path;
  Alcotest.(check string) "name from basename" (Filename.remove_extension (Filename.basename path))
    (Circuit.name c);
  Alcotest.(check int) "flops preserved" 3 (Circuit.num_flops c)

let test_parse_comments_and_blank () =
  let text = "# header\n\nINPUT(a)  # trailing\nOUTPUT(g)\ng = BUFF(a)\n" in
  let c = Bench_format.parse_string ~name:"cmt" text in
  Alcotest.(check int) "two nets" 2 (Circuit.num_nets c)

(* --- validate ------------------------------------------------------- *)

let test_validate_clean () =
  Alcotest.(check bool) "s27 is clean" true (Validate.is_clean (Tvs_circuits.S27.circuit ()))

let test_validate_dangling () =
  let b = Circuit.Builder.create "dangle" in
  let a = Circuit.Builder.input b "a" in
  let _g = Circuit.Builder.gate b ~name:"g" Gate.Not [ a ] in
  let c = Circuit.Builder.finish b in
  Alcotest.(check bool) "dangling reported" true
    (List.exists (function Validate.Dangling_net _ -> true | _ -> false) (Validate.check c))

let test_validate_no_inputs () =
  let c = Tvs_circuits.Fig1.circuit () in
  (* fig1 has no primary inputs by design; validation reports it and
     nothing else fatal. *)
  Alcotest.(check bool) "no-input issue" true
    (List.exists (function Validate.No_inputs -> true | _ -> false) (Validate.check c))

(* --- stats ---------------------------------------------------------- *)

let test_stats_s27 () =
  let s = Stats.compute (Tvs_circuits.S27.circuit ()) in
  Alcotest.(check int) "nets" 17 s.Stats.num_nets;
  Alcotest.(check int) "max fanin" 2 s.Stats.max_fanin;
  Alcotest.(check bool) "depth positive" true (s.Stats.depth > 0);
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Stats.gate_histogram in
  Alcotest.(check int) "histogram sums to gates" s.Stats.num_gates total

let test_scan_insert_reserved_names () =
  let b = Circuit.Builder.create "reserved" in
  let a = Circuit.Builder.input b "scan_en" in
  let q = Circuit.Builder.flop b ~name:"q" a in
  Circuit.Builder.mark_output b q;
  let c = Circuit.Builder.finish b in
  Alcotest.(check bool) "reserved pin name rejected" true
    (try
       ignore (Tvs_netlist.Scan_insert.insert c);
       false
     with Circuit.Build_error _ -> true)

let test_scan_insert_names_preserved () =
  let inserted = (Tvs_netlist.Scan_insert.insert (Tvs_circuits.S27.circuit ())).Tvs_netlist.Scan_insert.circuit in
  List.iter
    (fun nm ->
      Alcotest.(check bool) (nm ^ " still present") true
        (Circuit.find_net_opt inserted nm <> None))
    [ "G0"; "G5"; "G17"; "scan_en"; "scan_in"; "scan_out_tap" ]

(* --- Tseitin encoding --------------------------------------------------- *)

(* For every gate kind, every legal arity up to 4 and every input
   assignment: with the inputs fixed by unit clauses, the gate's CNF is
   satisfiable with [out] at the gate's value and unsatisfiable with [out]
   forced to the opposite value. *)
let test_tseitin_truth_tables () =
  let module Sat = Tvs_util.Sat in
  List.iter
    (fun kind ->
      for arity = 1 to 4 do
        if Gate.arity_ok kind arity then
          for bits = 0 to (1 lsl arity) - 1 do
            let inputs = Array.init arity (fun i -> bits land (1 lsl i) <> 0) in
            let out = arity + 1 in
            let nvars = ref out and clauses = ref [] in
            let fresh () =
              incr nvars;
              !nvars
            in
            let add clause = clauses := clause :: !clauses in
            Tvs_netlist.Tseitin.encode_gate ~fresh ~add ~out kind (List.init arity (fun i -> i + 1));
            Array.iteri (fun i b -> add [ (if b then i + 1 else -(i + 1)) ]) inputs;
            let expect = Gate.eval_bool kind inputs in
            let solve v = Sat.solve ~nvars:!nvars ([ (if v then out else -out) ] :: !clauses) in
            let case = Printf.sprintf "%s arity %d inputs %d" (Gate.to_string kind) arity bits in
            (match solve expect with
            | Sat.Sat _ -> ()
            | Sat.Unsat | Sat.Unknown -> Alcotest.failf "%s: no model at the gate's value" case);
            match solve (not expect) with
            | Sat.Unsat -> ()
            | Sat.Sat _ | Sat.Unknown -> Alcotest.failf "%s: model at the wrong value" case
          done
      done)
    [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf ]

let () =
  Alcotest.run "netlist"
    [
      ( "gate",
        [
          Alcotest.test_case "bool eval" `Quick test_gate_eval_bool;
          Alcotest.test_case "string conversions" `Quick test_gate_strings;
          Alcotest.test_case "arity" `Quick test_gate_arity;
          Alcotest.test_case "controlling value / inversion" `Quick test_controlling_inversion;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "duplicate names rejected" `Quick test_builder_duplicate_name;
          Alcotest.test_case "dangling forward flop rejected" `Quick test_builder_dangling_flop;
          Alcotest.test_case "bad arity rejected" `Quick test_builder_arity_rejected;
          Alcotest.test_case "fanout structure" `Quick test_fanout_structure;
          Alcotest.test_case "levels and depth" `Quick test_levels;
          Alcotest.test_case "topological order" `Quick test_topo_property;
          Alcotest.test_case "sequential loop allowed" `Quick test_flop_loop_allowed;
        ] );
      ( "bench-format",
        [
          Alcotest.test_case "parse s27" `Quick test_parse_s27;
          Alcotest.test_case "print/parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "duplicate definitions" `Quick test_duplicate_definitions;
          Alcotest.test_case "forward references" `Quick test_parse_forward_reference;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blank;
          Alcotest.test_case "file round-trip" `Quick test_bench_file_io;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean circuit" `Quick test_validate_clean;
          Alcotest.test_case "dangling net" `Quick test_validate_dangling;
          Alcotest.test_case "missing inputs" `Quick test_validate_no_inputs;
        ] );
      ("stats", [ Alcotest.test_case "s27 statistics" `Quick test_stats_s27 ]);
      ( "scan-insert",
        [
          Alcotest.test_case "reserved names rejected" `Quick test_scan_insert_reserved_names;
          Alcotest.test_case "names preserved" `Quick test_scan_insert_names_preserved;
        ] );
      ("tseitin", [ Alcotest.test_case "gate truth tables" `Quick test_tseitin_truth_tables ]);
    ]
