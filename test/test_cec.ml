(* The equivalence checker: every transformation gate it guards (scan
   insertion, TPI instrumentation, the Verilog emit/parse round-trip, the
   mux2 cell decomposition), seeded-defect detection with a
   simulation-confirmed counterexample, exhaustive cross-validation against
   the simulator on small random circuits, jobs-invariance and cache
   replay. *)

module Cec = Tvs_cec.Cec
module Cli = Tvs_harness.Cli
module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Scan_insert = Tvs_netlist.Scan_insert
module Parallel = Tvs_sim.Parallel
module Cache = Tvs_store.Cache
module Loader = Tvs_verilog.Loader
module Emitter = Tvs_verilog.Emitter
module Transform = Tvs_tpi.Transform
module Rng = Tvs_util.Rng

let load spec = Result.get_ok (Cli.load_circuit spec)
let inline text = Result.get_ok (Cli.inline_circuit text)

let check_equivalent what left right =
  match (Cec.check left right).Cec.verdict with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.failf "%s: inequivalent" what
  | Cec.Unknown _ -> Alcotest.failf "%s: budget exhausted" what

(* --- the transformation gates ------------------------------------------ *)

let test_scan_gate () =
  List.iter
    (fun spec ->
      let left = load spec in
      let right = (Scan_insert.insert left).Scan_insert.circuit in
      let r = Cec.check left right in
      (match r.Cec.verdict with
      | Cec.Equivalent -> ()
      | _ -> Alcotest.failf "%s scan form not proven" spec);
      (* The scan_en convention tie must have been recognized and applied. *)
      Alcotest.(check bool) "scan_en tied" true
        (List.exists (fun t -> t.Cec.name = "scan_en" && t.Cec.value = false) r.Cec.ties);
      Alcotest.(check int) "all flops matched" (Circuit.num_flops left) r.Cec.matched_flops)
    [ "s27"; "s444" ]

let test_tpi_gate () =
  (* The same circuit the CLI's [tvs tpi --verify] gate proves: the study's
     selected points applied to the base netlist (inclusion check — the
     original outputs must be preserved, the tpi_ points are extra). *)
  let module Tpi = Tvs_tpi.Tpi in
  let c = load "s27" in
  let study = Tpi.run ~options:{ Tpi.default_options with Tpi.controls = true } c in
  let cands = List.map (fun (p : Tpi.point) -> p.Tpi.candidate) study.Tpi.points in
  Alcotest.(check bool) "points selected" true (cands <> []);
  let right = Transform.apply c cands in
  let r = Cec.check c right in
  match r.Cec.verdict with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "tpi transform not proven (inclusion check under tpi_ctl ties)"

let test_verilog_roundtrip_gate () =
  let c = load "s27" in
  let plain = Loader.parse_string (Emitter.emit c).Emitter.text in
  check_equivalent "plain emit/parse" c plain;
  (* Scan emission re-parses with the scan pins dropped, so it verifies
     against the pre-scan original directly. *)
  let scanned = Loader.parse_string (Emitter.emit ~scan:true c).Emitter.text in
  check_equivalent "scan emit/parse" c scanned

let mux4_verilog =
  "module mux4 (d0, d1, d2, d3, s0, s1, y);\n\
  \  input d0, d1, d2, d3, s0, s1;\n\
  \  output y;\n\
  \  wire m0, m1;\n\
  \  tvs_mux2 u0 (.y(m0), .a(d0), .b(d1), .s(s0));\n\
  \  tvs_mux2 u1 (.y(m1), .a(d2), .b(d3), .s(s0));\n\
  \  tvs_mux2 u2 (.y(y),  .a(m0), .b(m1), .s(s1));\n\
   endmodule\n"

let mux4_reference =
  "INPUT(d0)\nINPUT(d1)\nINPUT(d2)\nINPUT(d3)\nINPUT(s0)\nINPUT(s1)\nOUTPUT(y)\n\
   s0n = NOT(s0)\ns1n = NOT(s1)\n\
   t0 = AND(d0, s0n, s1n)\nt1 = AND(d1, s0, s1n)\n\
   t2 = AND(d2, s0n, s1)\nt3 = AND(d3, s0, s1)\n\
   y = OR(t0, t1, t2, t3)\n"

let test_mux2_gate () =
  (* The frontend decomposes each tvs_mux2 into NOT/AND/OR; the reference is
     the same function in structurally unrelated sum-of-products form. *)
  check_equivalent "mux2 decomposition" (inline mux4_reference) (inline mux4_verilog)

(* --- seeded defect ------------------------------------------------------ *)

let c17 flip =
  (* ISCAS85 c17; [flip] turns gate g16 from NAND into AND — the seeded
     single-gate defect of examples/verilog/c17_defect.v. *)
  Printf.sprintf
    "INPUT(N1)\nINPUT(N2)\nINPUT(N3)\nINPUT(N6)\nINPUT(N7)\nOUTPUT(N22)\nOUTPUT(N23)\n\
     N10 = NAND(N1, N3)\nN11 = NAND(N3, N6)\nN16 = %s(N2, N11)\n\
     N19 = NAND(N11, N7)\nN22 = NAND(N10, N16)\nN23 = NAND(N16, N19)\n"
    (if flip then "AND" else "NAND")

let po_index c name =
  let outs = Circuit.outputs c in
  let rec go i =
    if i >= Array.length outs then Alcotest.failf "no output %S" name
    else if Circuit.net_name c outs.(i) = name then i
    else go (i + 1)
  in
  go 0

let test_seeded_defect () =
  let left = inline (c17 false) and right = inline (c17 true) in
  match (Cec.check left right).Cec.verdict with
  | Cec.Equivalent -> Alcotest.fail "seeded defect proven equivalent"
  | Cec.Unknown _ -> Alcotest.fail "seeded defect undecided"
  | Cec.Inequivalent cex ->
      (* The checker replays counterexamples internally before reporting;
         confirm independently through the simulator here anyway. *)
      let name =
        match cex.Cec.point with
        | Cec.Po n -> n
        | Cec.Capture _ -> Alcotest.fail "combinational circuit reported a capture point"
      in
      let run c pi =
        let po, _ = Parallel.run_single (Parallel.create c) ~pi ~state:[||] in
        po.(po_index c name)
      in
      Alcotest.(check bool) "left value replays" cex.Cec.left_value
        (run left cex.Cec.left_pi);
      Alcotest.(check bool) "right value replays" cex.Cec.right_value
        (run right cex.Cec.right_pi);
      Alcotest.(check bool) "values differ" true (cex.Cec.left_value <> cex.Cec.right_value)

(* --- exhaustive cross-validation ---------------------------------------- *)

(* A random small combinational circuit as a buildable spec: shared between
   the original and its one-gate mutant so net names line up. *)
type gate_spec = { kind : Gate.kind; fanins : int list (* net index: inputs first *) }

let random_spec rng =
  let n_in = 2 + Rng.int rng 4 in
  let n_gates = 1 + Rng.int rng 8 in
  let gates =
    List.init n_gates (fun g ->
        let avail = n_in + g in
        let pick () = Rng.int rng avail in
        match Rng.int rng 8 with
        | 0 -> { kind = Gate.Not; fanins = [ pick () ] }
        | 1 -> { kind = Gate.Buf; fanins = [ pick () ] }
        | k ->
            let kind =
              match k with
              | 2 -> Gate.And
              | 3 -> Gate.Or
              | 4 -> Gate.Nand
              | 5 -> Gate.Nor
              | 6 -> Gate.Xor
              | _ -> Gate.Xnor
            in
            let arity = 2 + Rng.int rng 2 in
            { kind; fanins = List.init arity (fun _ -> pick ()) })
  in
  (n_in, gates)

let flip_kind = function
  | Gate.Not -> Gate.Buf
  | Gate.Buf -> Gate.Not
  | Gate.And -> Gate.Nand
  | Gate.Nand -> Gate.And
  | Gate.Or -> Gate.Nor
  | Gate.Nor -> Gate.Or
  | Gate.Xor -> Gate.Xnor
  | Gate.Xnor -> Gate.Xor

let build_spec ?flip (n_in, gates) =
  let b = Circuit.Builder.create "spec" in
  let nets = Array.make (n_in + List.length gates) (-1) in
  for i = 0 to n_in - 1 do
    nets.(i) <- Circuit.Builder.input b (Printf.sprintf "i%d" i)
  done;
  List.iteri
    (fun g { kind; fanins } ->
      let kind = if flip = Some g then flip_kind kind else kind in
      nets.(n_in + g) <-
        Circuit.Builder.gate b ~name:(Printf.sprintf "g%d" g) kind
          (List.map (fun f -> nets.(f)) fanins))
    gates;
  Circuit.Builder.mark_output b nets.(n_in + List.length gates - 1);
  Circuit.Builder.finish b

(* Ground truth: compare every observation point on all 2^n input vectors. *)
let exhaustive_equal left right =
  let sl = Parallel.create left and sr = Parallel.create right in
  let n = Circuit.num_inputs left in
  let equal = ref true in
  for v = 0 to (1 lsl n) - 1 do
    let pi = Array.init n (fun i -> (v lsr i) land 1 = 1) in
    let pol, _ = Parallel.run_single sl ~pi ~state:[||] in
    let por, _ = Parallel.run_single sr ~pi ~state:[||] in
    if pol <> por then equal := false
  done;
  !equal

let qcheck_verdict_matches_simulation =
  QCheck.Test.make ~name:"verdict matches exhaustive simulation" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, gate_seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let spec = random_spec rng in
      let left = build_spec spec in
      let right = build_spec ~flip:(gate_seed mod List.length (snd spec)) spec in
      let truth = exhaustive_equal left right in
      match (Cec.check left right).Cec.verdict with
      | Cec.Equivalent -> truth
      | Cec.Unknown _ -> false (* tiny cones must never exhaust the budget *)
      | Cec.Inequivalent cex ->
          (* A mutant masked on every input vector must not be refuted; a
             live one must come with a confirmed differing pair. *)
          (not truth) && cex.Cec.left_value <> cex.Cec.right_value)

(* --- determinism and caching -------------------------------------------- *)

let test_jobs_invariant () =
  let left = load "s444" in
  let right = (Scan_insert.insert left).Scan_insert.circuit in
  let check jobs =
    let before = Tvs_util.Pool.default_jobs () in
    Tvs_util.Pool.set_default_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Tvs_util.Pool.set_default_jobs before)
      (fun () -> Cec.check left right)
  in
  let r1 = check 1 and r4 = check 4 in
  Alcotest.(check string) "json byte-identical across jobs" (Cec.to_json_string r1)
    (Cec.to_json_string r4);
  Alcotest.(check string) "ascii byte-identical across jobs" (Cec.to_ascii r1)
    (Cec.to_ascii r4)

let test_cache_replay () =
  let dir = Filename.temp_file "tvs-cec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let cache = Result.get_ok (Cache.open_dir dir) in
  Cache.install (Some cache);
  Fun.protect ~finally:(fun () -> Cache.install None) @@ fun () ->
  let left = load "s27" in
  let right = (Scan_insert.insert left).Scan_insert.circuit in
  let r1 = Cec.check left right in
  Alcotest.(check bool) "first run computes" false r1.Cec.cached;
  let r2 = Cec.check left right in
  Alcotest.(check bool) "second run replays" true r2.Cec.cached;
  Alcotest.(check string) "replayed rendering byte-identical" (Cec.to_json_string r1)
    (Cec.to_json_string r2);
  (* The entry lives under the CEQV kind at the exposed key. *)
  let key = Cec.check_key ~options:Cec.default_options left right in
  Alcotest.(check bool) "entry on disk" true
    (Sys.file_exists (Cache.entry_path cache ~kind:Cec.cache_kind ~key))

let test_wire_roundtrip () =
  let left = load "s27" in
  let right = (Scan_insert.insert left).Scan_insert.circuit in
  let r = Cec.check left right in
  let w = Tvs_util.Wire.writer () in
  Cec.encode_result w r;
  let r' = Cec.decode_result (Tvs_util.Wire.reader (Tvs_util.Wire.contents w)) in
  Alcotest.(check string) "codec round-trips the rendering" (Cec.to_json_string r)
    (Cec.to_json_string r')

let test_mismatch () =
  (* Unrelated interfaces raise Mismatch: the question cannot be posed. *)
  match Cec.check (load "s27") (load "fig1") with
  | exception Cec.Mismatch _ -> ()
  | _ -> Alcotest.fail "unrelated interfaces did not raise Mismatch"

let () =
  Alcotest.run "cec"
    [
      ( "gates",
        [
          Alcotest.test_case "scan insertion" `Quick test_scan_gate;
          Alcotest.test_case "tpi transform" `Quick test_tpi_gate;
          Alcotest.test_case "verilog round-trip" `Quick test_verilog_roundtrip_gate;
          Alcotest.test_case "mux2 decomposition" `Quick test_mux2_gate;
        ] );
      ( "defects",
        [
          Alcotest.test_case "seeded defect refuted and confirmed" `Quick test_seeded_defect;
          QCheck_alcotest.to_alcotest qcheck_verdict_matches_simulation;
          Alcotest.test_case "interface mismatch" `Quick test_mismatch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-invariant" `Quick test_jobs_invariant;
          Alcotest.test_case "cache replay" `Quick test_cache_replay;
          Alcotest.test_case "result wire codec" `Quick test_wire_roundtrip;
        ] );
    ]
