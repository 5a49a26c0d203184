(* Unit and property tests for Tvs_logic: ternary logic and the five-valued
   D-calculus. *)

module Ternary = Tvs_logic.Ternary
module Fivev = Tvs_logic.Fivev

let tern = Alcotest.testable (fun fmt v -> Ternary.pp fmt v) Ternary.equal
let fv = Alcotest.testable (fun fmt v -> Fivev.pp fmt v) Fivev.equal

let all3 = [ Ternary.Zero; Ternary.One; Ternary.X ]
let all5 = [ Fivev.Zero; Fivev.One; Fivev.D; Fivev.Dbar; Fivev.X ]

let gen3 = QCheck.Gen.oneofl all3
let gen5 = QCheck.Gen.oneofl all5
let arb3 = QCheck.make ~print:(fun v -> String.make 1 (Ternary.to_char v)) gen3
let arb5 = QCheck.make ~print:Fivev.to_string gen5

(* --- ternary ------------------------------------------------------- *)

let test_ternary_tables () =
  let open Ternary in
  Alcotest.check tern "0 and X" Zero (t_and Zero X);
  Alcotest.check tern "1 and X" X (t_and One X);
  Alcotest.check tern "1 or X" One (t_or One X);
  Alcotest.check tern "0 or X" X (t_or Zero X);
  Alcotest.check tern "not X" X (t_not X);
  Alcotest.check tern "X xor 1" X (t_xor X One);
  Alcotest.check tern "1 xor 1" Zero (t_xor One One);
  Alcotest.check tern "0 xor 1" One (t_xor Zero One)

let test_ternary_chars () =
  List.iter
    (fun v -> Alcotest.check tern "char roundtrip" v (Ternary.of_char (Ternary.to_char v)))
    all3;
  Alcotest.check tern "lowercase x" Ternary.X (Ternary.of_char 'x');
  Alcotest.check_raises "bad char" (Invalid_argument "Ternary.of_char: '2'") (fun () ->
      ignore (Ternary.of_char '2'))

let test_ternary_merge () =
  let open Ternary in
  Alcotest.(check (option tern)) "X merge 1" (Some One) (merge X One);
  Alcotest.(check (option tern)) "1 merge X" (Some One) (merge One X);
  Alcotest.(check (option tern)) "conflict" None (merge Zero One);
  Alcotest.(check (option tern)) "agree" (Some Zero) (merge Zero Zero)

let qcheck_merge_compatible =
  QCheck.Test.make ~name:"merge succeeds iff compatible" ~count:200 (QCheck.pair arb3 arb3)
    (fun (a, b) -> Ternary.compatible a b = Option.is_some (Ternary.merge a b))

let qcheck_and_comm =
  QCheck.Test.make ~name:"t_and commutative" ~count:100 (QCheck.pair arb3 arb3) (fun (a, b) ->
      Ternary.equal (Ternary.t_and a b) (Ternary.t_and b a))

let qcheck_demorgan =
  QCheck.Test.make ~name:"De Morgan holds in Kleene logic" ~count:100 (QCheck.pair arb3 arb3)
    (fun (a, b) ->
      Ternary.equal
        (Ternary.t_not (Ternary.t_and a b))
        (Ternary.t_or (Ternary.t_not a) (Ternary.t_not b)))

(* --- five-valued --------------------------------------------------- *)

let test_fivev_projections () =
  Alcotest.check tern "good D" Ternary.One (Fivev.good Fivev.D);
  Alcotest.check tern "faulty D" Ternary.Zero (Fivev.faulty Fivev.D);
  Alcotest.check tern "good D'" Ternary.Zero (Fivev.good Fivev.Dbar);
  Alcotest.check tern "faulty D'" Ternary.One (Fivev.faulty Fivev.Dbar);
  Alcotest.check fv "of_pair reconstructs D" Fivev.D (Fivev.of_pair Ternary.One Ternary.Zero);
  Alcotest.check fv "of_pair X absorbs" Fivev.X (Fivev.of_pair Ternary.X Ternary.One)

let test_fivev_d_tables () =
  let open Fivev in
  Alcotest.check fv "D and 1" D (f_and D One);
  Alcotest.check fv "D and 0" Zero (f_and D Zero);
  Alcotest.check fv "D and D'" Zero (f_and D Dbar);
  Alcotest.check fv "D or D'" One (f_or D Dbar);
  Alcotest.check fv "D xor D" Zero (f_xor D D);
  Alcotest.check fv "D xor 1" Dbar (f_xor D One);
  Alcotest.check fv "not D" Dbar (f_not D);
  Alcotest.check fv "D and X" X (f_and D X)

(* The defining law of the D-calculus: every connective acts componentwise on
   the (good, faulty) pair. *)
let componentwise name op top =
  QCheck.Test.make ~name ~count:200 (QCheck.pair arb5 arb5) (fun (a, b) ->
      Fivev.equal (op a b) (Fivev.of_pair (top (Fivev.good a) (Fivev.good b)) (top (Fivev.faulty a) (Fivev.faulty b))))

let qcheck_fivev_and = componentwise "f_and is componentwise t_and" Fivev.f_and Ternary.t_and
let qcheck_fivev_or = componentwise "f_or is componentwise t_or" Fivev.f_or Ternary.t_or
let qcheck_fivev_xor = componentwise "f_xor is componentwise t_xor" Fivev.f_xor Ternary.t_xor

let test_fivev_is_error () =
  Alcotest.(check (list bool))
    "only D and D' are errors"
    [ false; false; true; true; false ]
    (List.map Fivev.is_error all5)

let () =
  Alcotest.run "logic"
    [
      ( "ternary",
        [
          Alcotest.test_case "kleene tables" `Quick test_ternary_tables;
          Alcotest.test_case "char conversions" `Quick test_ternary_chars;
          Alcotest.test_case "merge" `Quick test_ternary_merge;
          QCheck_alcotest.to_alcotest qcheck_merge_compatible;
          QCheck_alcotest.to_alcotest qcheck_and_comm;
          QCheck_alcotest.to_alcotest qcheck_demorgan;
        ] );
      ( "fivev",
        [
          Alcotest.test_case "projections" `Quick test_fivev_projections;
          Alcotest.test_case "D tables" `Quick test_fivev_d_tables;
          Alcotest.test_case "is_error" `Quick test_fivev_is_error;
          QCheck_alcotest.to_alcotest qcheck_fivev_and;
          QCheck_alcotest.to_alcotest qcheck_fivev_or;
          QCheck_alcotest.to_alcotest qcheck_fivev_xor;
        ] );
    ]
