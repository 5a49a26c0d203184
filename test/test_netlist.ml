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

let test_builder_connect_not_pending () =
  let b = Circuit.Builder.create "not-pending" in
  let a = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.flop b ~name:"q" a in
  Alcotest.check_raises "an input"
    (Circuit.Build_error "connect_flop: net 0 is not a pending flop") (fun () ->
      Circuit.Builder.connect_flop b a a);
  Alcotest.check_raises "a flop declared with its data"
    (Circuit.Build_error "connect_flop: net 1 is not a pending flop") (fun () ->
      Circuit.Builder.connect_flop b q a)

let test_builder_connect_twice () =
  let b = Circuit.Builder.create "twice" in
  let a = Circuit.Builder.input b "a" in
  let q = Circuit.Builder.flop_forward b "q" in
  Circuit.Builder.connect_flop b q a;
  Alcotest.check_raises "second connect_flop"
    (Circuit.Build_error "connect_flop: net 1 is not a pending flop") (fun () ->
      Circuit.Builder.connect_flop b q a);
  let c = Circuit.Builder.finish b in
  Alcotest.(check bool) "first connection kept" true (Circuit.driver c q = Circuit.Flip_flop a)

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

(* --- reader gate order ---------------------------------------------- *)

(* The reader's former pass 2, kept as the reference for its gate order:
   sweep the remaining gates in list order, defining each whose fanins all
   exist, until a sweep defines nothing. Passes 0, 1 and 3 are as in
   [Bench_format.circuit_of_statements]. *)
let fixpoint_circuit_of_statements ~name numbered =
  let fail line msg = raise (Bench_format.Parse_error (line, msg)) in
  let defined_at = Hashtbl.create 64 in
  let output_at = Hashtbl.create 16 in
  List.iter
    (fun (lineno, st) ->
      let check_dup tbl what nm =
        match Hashtbl.find_opt tbl nm with
        | Some first ->
            fail lineno
              (Printf.sprintf "duplicate %s of net %S (first defined at line %d)" what nm first)
        | None -> Hashtbl.add tbl nm lineno
      in
      match st with
      | Bench_format.St_input nm
      | Bench_format.St_dff (nm, _)
      | Bench_format.St_gate (nm, _, _)
      | Bench_format.St_const (nm, _) ->
          check_dup defined_at "definition" nm
      | Bench_format.St_output nm -> check_dup output_at "OUTPUT declaration" nm)
    numbered;
  let b = Circuit.Builder.create name in
  let defined = Hashtbl.create 64 in
  let declare nm net = Hashtbl.replace defined nm net in
  List.iter
    (fun (_, st) ->
      match st with
      | Bench_format.St_input nm -> declare nm (Circuit.Builder.input b nm)
      | Bench_format.St_const (nm, v) -> declare nm (Circuit.Builder.const b ~name:nm v)
      | Bench_format.St_dff (q, _) -> declare q (Circuit.Builder.flop_forward b q)
      | Bench_format.St_output _ | Bench_format.St_gate _ -> ())
    numbered;
  let gates_left =
    ref
      (List.filter_map
         (function
           | lineno, Bench_format.St_gate (nm, k, ins) -> Some (lineno, nm, k, ins)
           | _, _ -> None)
         numbered)
  in
  let progress = ref true in
  while !gates_left <> [] && !progress do
    progress := false;
    let deferred = ref [] in
    List.iter
      (fun ((_, nm, kind, ins) as g) ->
        if List.for_all (Hashtbl.mem defined) ins then begin
          let fanins = List.map (Hashtbl.find defined) ins in
          declare nm (Circuit.Builder.gate b ~name:nm kind fanins);
          progress := true
        end
        else deferred := g :: !deferred)
      !gates_left;
    gates_left := List.rev !deferred
  done;
  (match !gates_left with
  | [] -> ()
  | (lineno, nm, _, ins) :: _ as stalled ->
      let missing = List.filter (fun i -> not (Hashtbl.mem defined i)) ins in
      let undeclared = List.filter (fun i -> not (Hashtbl.mem defined_at i)) missing in
      if undeclared <> [] then
        fail lineno
          (Printf.sprintf "gate %s references undefined net(s): %s" nm
             (String.concat ", " undeclared))
      else
        fail lineno
          (Printf.sprintf "combinational cycle through gate(s): %s"
             (String.concat ", " (List.map (fun (_, g, _, _) -> g) stalled))));
  List.iter
    (fun (lineno, st) ->
      match st with
      | Bench_format.St_dff (q, d) -> (
          match Hashtbl.find_opt defined d with
          | Some dnet -> Circuit.Builder.connect_flop b (Hashtbl.find defined q) dnet
          | None -> fail lineno (Printf.sprintf "flop %s references undefined net %s" q d))
      | Bench_format.St_output nm -> (
          match Hashtbl.find_opt defined nm with
          | Some net -> Circuit.Builder.mark_output b net
          | None -> fail lineno ("OUTPUT references undefined net " ^ nm))
      | Bench_format.St_input _ | Bench_format.St_gate _ | Bench_format.St_const _ -> ())
    numbered;
  Circuit.Builder.finish b

(* The canonical bytes of what a reader builds, or the error it raises. *)
let outcome read text =
  match read (Bench_format.statements_of_string text) with
  | c ->
      let w = Tvs_util.Wire.writer () in
      Circuit.encode w c;
      Ok (Tvs_util.Wire.contents w)
  | exception Bench_format.Parse_error (line, msg) -> Error (line, msg)

let outcome_t =
  Alcotest.(result string (pair int string))

(* A random netlist over inputs, flops and gates whose fanins are earlier
   gates, sometimes with one fanin moved onto a later gate (which may close
   a cycle) or onto a name nothing defines, as shuffled statements with
   comment lines between them. *)
let random_bench_text seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let n_in = 1 + int 4 and n_ff = int 4 and n_g = 1 + int 40 in
  let sources =
    Array.append
      (Array.init n_in (Printf.sprintf "i%d"))
      (Array.init n_ff (Printf.sprintf "q%d"))
  in
  let gate_name = Printf.sprintf "g%d" in
  let fanin g =
    if g > 0 && int 3 > 0 then gate_name (int g) else sources.(int (Array.length sources))
  in
  let gates =
    Array.init n_g (fun g ->
        let kind, arity =
          match int 5 with
          | 0 -> ("NOT", 1)
          | 1 -> ("BUFF", 1)
          | 2 -> ("XOR", 2)
          | 3 -> ("AND", 2 + int 2)
          | _ -> ("NOR", 2 + int 2)
        in
        (kind, Array.init arity (fun _ -> fanin g)))
  in
  (match int 5 with
  | 0 ->
      let g = int n_g in
      (snd gates.(g)).(0) <- gate_name (g + int (n_g - g))
  | 1 -> (snd gates.(int n_g)).(0) <- "nowhere"
  | _ -> ());
  let statements =
    Array.concat
      [
        Array.map (Printf.sprintf "INPUT(%s)") (Array.sub sources 0 n_in);
        Array.init n_ff (fun k ->
            Printf.sprintf "q%d = DFF(%s)" k
              (if int 2 = 0 then gate_name (int n_g) else sources.(int (Array.length sources))));
        Array.mapi
          (fun g (kind, ins) ->
            Printf.sprintf "%s = %s(%s)" (gate_name g) kind (String.concat ", " (Array.to_list ins)))
          gates;
        Array.init (1 + int 3) (fun k -> Printf.sprintf "OUTPUT(%s)" (gate_name (n_g - 1 - k mod n_g)))
        |> Array.to_list |> List.sort_uniq compare |> Array.of_list;
      ]
  in
  for i = Array.length statements - 1 downto 1 do
    let j = int (i + 1) in
    let x = statements.(i) in
    statements.(i) <- statements.(j);
    statements.(j) <- x
  done;
  String.concat "\n"
    (Array.to_list (Array.map (fun s -> if int 4 = 0 then "# gap\n" ^ s else s) statements))

let qcheck_reader_matches_fixpoint =
  QCheck.Test.make ~name:"reader order and errors equal the fixpoint's" ~count:600
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let text = random_bench_text seed in
      let got = outcome (Bench_format.circuit_of_statements ~name:"rand") text in
      let want = outcome (fixpoint_circuit_of_statements ~name:"rand") text in
      if got <> want then QCheck.Test.fail_reportf "reader and fixpoint differ on:\n%s" text;
      true)

(* [n] inverters in a chain from input [a], listed last gate first: the
   fixpoint needed one sweep per gate. *)
let inverter_chain ?(reversed = true) n =
  let line k = Printf.sprintf "g%d = NOT(%s)\n" k (if k = 1 then "a" else Printf.sprintf "g%d" (k - 1)) in
  let body = List.init n (fun k -> line (if reversed then n - k else k + 1)) in
  String.concat "" (Printf.sprintf "INPUT(a)\nOUTPUT(g%d)\n" n :: body)

let test_reversed_chain_matches_fixpoint () =
  let small = inverter_chain 300 in
  Alcotest.check outcome_t "300 gates, reversed"
    (outcome (fixpoint_circuit_of_statements ~name:"chain") small)
    (outcome (Bench_format.circuit_of_statements ~name:"chain") small);
  (* Listed in order, the fixpoint defines every gate in its first sweep;
     listed in reverse, it defines gate k in sweep k: the same order. *)
  Alcotest.check outcome_t "20 000 gates, reversed against in order"
    (outcome (fixpoint_circuit_of_statements ~name:"chain") (inverter_chain ~reversed:false 20_000))
    (outcome (Bench_format.circuit_of_statements ~name:"chain") (inverter_chain 20_000))

(* --- construction growth -------------------------------------------- *)

(* Bytes allocated running [prepare n] and then [prepare (4 n)]'s thunks,
   against each other: a linear construction allocates about 4x as much at
   4n, a quadratic one about 16x. Deterministic; reads no clock. The
   counters behind [Gc.allocated_bytes] catch up at collections, so a minor
   collection before each reading makes the count exact. *)
let check_linear what prepare n =
  let allocated () =
    Gc.minor ();
    Gc.allocated_bytes ()
  in
  let bytes m =
    let run = prepare m in
    let before = allocated () in
    ignore (Sys.opaque_identity (run ()));
    allocated () -. before
  in
  let ratio = bytes (4 * n) /. bytes n in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.1fx as much at n = %d as at n = %d" what ratio (4 * n) n)
    true (ratio <= 6.0)

(* [n] flops declared forward, each connected after the gate it captures. *)
let forward_flop_chain n () =
  let b = Circuit.Builder.create "forward" in
  let a = Circuit.Builder.input b "a" in
  let qs = Array.init n (fun i -> Circuit.Builder.flop_forward b (Printf.sprintf "q%d" i)) in
  let gs =
    Array.mapi (fun i q -> Circuit.Builder.gate b ~name:(Printf.sprintf "g%d" i) Gate.And [ a; q ]) qs
  in
  Array.iteri (fun i q -> Circuit.Builder.connect_flop b q gs.(i)) qs;
  Circuit.Builder.mark_output b gs.(n - 1);
  Circuit.Builder.finish b

let test_growth_forward_flops () = check_linear "a chain of forward flops" forward_flop_chain 1000

let test_growth_synth () =
  let profile n =
    {
      Tvs_circuits.Profiles.name = "growth";
      npi = 8;
      npo = 8;
      nff = 16;
      ngates = n;
      style = Tvs_circuits.Profiles.Balanced;
    }
  in
  check_linear "Synth.generate" (fun n () -> Tvs_circuits.Synth.generate (profile n)) 1000

let test_growth_reversed_chain () =
  check_linear "reading a reversed inverter chain"
    (fun n ->
      let text = inverter_chain n in
      fun () -> Bench_format.parse_string ~name:"chain" text)
    1000

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
  let module Tseitin = Tvs_netlist.Tseitin in
  List.iter
    (fun kind ->
      for arity = 1 to 4 do
        if Gate.arity_ok kind arity then
          for bits = 0 to (1 lsl arity) - 1 do
            let inputs = Array.init arity (fun i -> bits land (1 lsl i) <> 0) in
            let out = arity + 1 in
            let solve v =
              let cnf = Tseitin.create ~nvars:out () in
              Tseitin.gate cnf ~out kind (List.init arity (fun i -> i + 1));
              Array.iteri (fun i b -> Tseitin.add cnf [ (if b then i + 1 else -(i + 1)) ]) inputs;
              Tseitin.add cnf [ (if v then out else -out) ];
              fst (Tseitin.solve cnf)
            in
            let expect = Gate.eval_bool kind inputs in
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
          Alcotest.test_case "connect_flop on a net that is not pending" `Quick
            test_builder_connect_not_pending;
          Alcotest.test_case "connect_flop twice" `Quick test_builder_connect_twice;
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
          Alcotest.test_case "reversed chain matches the fixpoint" `Quick
            test_reversed_chain_matches_fixpoint;
          QCheck_alcotest.to_alcotest qcheck_reader_matches_fixpoint;
        ] );
      ( "construction growth",
        [
          Alcotest.test_case "forward flops" `Quick test_growth_forward_flops;
          Alcotest.test_case "synthesis" `Quick test_growth_synth;
          Alcotest.test_case "reversed .bench chain" `Quick test_growth_reversed_chain;
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
