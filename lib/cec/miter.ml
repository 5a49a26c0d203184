module Circuit = Tvs_netlist.Circuit
module Tseitin = Tvs_netlist.Tseitin
module Sat = Tvs_util.Sat

type t = {
  left : Circuit.t;
  right : Circuit.t;
  canon : (Circuit.net * bool) array;  (* left net -> signed structural representative *)
  source_map : int array;
  subst : (Circuit.net * bool) option array;
  tie_left : (int, bool) Hashtbl.t;
  tie_right : (int, bool) Hashtbl.t;
  mutable nvars : int;
  mutable clauses : int list list;
  lvar : int array;  (* left representative net -> CNF variable, 0 = not yet encoded *)
  rlit : int array;  (* right net -> CNF literal, 0 = not yet encoded *)
  mutable decision : int list;  (* source variables, reverse allocation order *)
}

let create ~left ~right ~canon ~source_map ~subst ~tie_left ~tie_right () =
  if Array.length canon <> Circuit.num_nets left then invalid_arg "Miter.create: canon length";
  if Array.length source_map <> Circuit.num_nets right then
    invalid_arg "Miter.create: source_map length";
  if Array.length subst <> Circuit.num_nets right then invalid_arg "Miter.create: subst length";
  let tl = Hashtbl.create 8 and tr = Hashtbl.create 8 in
  List.iter (fun (n, v) -> Hashtbl.replace tl n v) tie_left;
  List.iter (fun (n, v) -> Hashtbl.replace tr n v) tie_right;
  {
    left;
    right;
    canon;
    source_map;
    subst;
    tie_left = tl;
    tie_right = tr;
    nvars = 0;
    clauses = [];
    lvar = Array.make (Circuit.num_nets left) 0;
    rlit = Array.make (Circuit.num_nets right) 0;
    decision = [];
  }

let fresh t =
  t.nvars <- t.nvars + 1;
  t.nvars

let add t clause = t.clauses <- clause :: t.clauses

let encode_gate t ~out kind ins =
  Tseitin.encode_gate ~fresh:(fun () -> fresh t) ~add:(add t) ~out kind ins

let tie_clause t v = function
  | Some b -> add t [ (if b then v else -v) ]
  | None -> ()

(* Iterative post-order cone encoding: push [(n, false)] to visit, pop and
   re-push as [(n, true)] once the fanins are queued, encode on the [true]
   pop (fanins are then guaranteed encoded — diamonds are skipped by the
   already-encoded guard).

   Left nets are encoded through [canon]: only structural representatives
   get variables, a BUF/NOT chain or duplicate gate borrows its
   representative's literal (with the canon phase folded in). Equivalent
   left nets thereby share one CNF variable, which is what lets a final
   output miter over a substituted right cone collapse by unit propagation
   instead of needing a full cone proof. *)
let lit_left t net =
  let rep0, ph0 = t.canon.(net) in
  let signed ph v = if ph then -v else v in
  if t.lvar.(rep0) <> 0 then signed ph0 t.lvar.(rep0)
  else begin
    let stack = ref [ (rep0, false) ] in
    let pop () =
      match !stack with
      | [] -> None
      | hd :: rest ->
          stack := rest;
          Some hd
    in
    let continue = ref true in
    while !continue do
      match pop () with
      | None -> continue := false
      | Some (n, ready) ->
          (* [n] is always a representative: canon forwards BUF/NOT chains
             and duplicate gates, so their cones are never encoded. *)
          if t.lvar.(n) = 0 then begin
            match Circuit.driver t.left n with
            | Circuit.Gate_node (kind, ins) ->
                if ready then begin
                  let v = fresh t in
                  t.lvar.(n) <- v;
                  encode_gate t ~out:v kind
                    (Array.to_list
                       (Array.map
                          (fun i ->
                            let ri, pi = t.canon.(i) in
                            signed pi t.lvar.(ri))
                          ins))
                end
                else begin
                  stack := (n, true) :: !stack;
                  Array.iter
                    (fun i ->
                      let ri, _ = t.canon.(i) in
                      if t.lvar.(ri) = 0 then stack := (ri, false) :: !stack)
                    ins
                end
            | Circuit.Primary_input | Circuit.Flip_flop _ ->
                let v = fresh t in
                t.lvar.(n) <- v;
                t.decision <- v :: t.decision;
                tie_clause t v (Hashtbl.find_opt t.tie_left n)
            | Circuit.Const b ->
                let v = fresh t in
                t.lvar.(n) <- v;
                add t [ (if b then v else -v) ]
          end
    done;
    signed ph0 t.lvar.(rep0)
  end

let lit_right t net =
  if t.rlit.(net) <> 0 then t.rlit.(net)
  else begin
    let stack = ref [ (net, false) ] in
    let pop () =
      match !stack with
      | [] -> None
      | hd :: rest ->
          stack := rest;
          Some hd
    in
    let continue = ref true in
    while !continue do
      match pop () with
      | None -> continue := false
      | Some (n, ready) ->
          if t.rlit.(n) = 0 then
            if t.source_map.(n) >= 0 then begin
              (* Matched source: share the left variable; a tie registered on
                 the right name pins the shared variable. *)
              let v = lit_left t t.source_map.(n) in
              t.rlit.(n) <- v;
              tie_clause t v (Hashtbl.find_opt t.tie_right n)
            end
            else begin
              match t.subst.(n) with
              | Some (l, negated) ->
                  let v = lit_left t l in
                  t.rlit.(n) <- (if negated then -v else v)
              | None -> (
                  match Circuit.driver t.right n with
                  | Circuit.Gate_node (kind, ins) ->
                      if ready then begin
                        let v = fresh t in
                        t.rlit.(n) <- v;
                        encode_gate t ~out:v kind
                          (Array.to_list (Array.map (fun i -> t.rlit.(i)) ins))
                      end
                      else begin
                        stack := (n, true) :: !stack;
                        Array.iter
                          (fun i -> if t.rlit.(i) = 0 then stack := (i, false) :: !stack)
                          ins
                      end
                  | Circuit.Primary_input | Circuit.Flip_flop _ ->
                      let v = fresh t in
                      t.rlit.(n) <- v;
                      t.decision <- v :: t.decision;
                      tie_clause t v (Hashtbl.find_opt t.tie_right n)
                  | Circuit.Const b ->
                      let v = fresh t in
                      t.rlit.(n) <- v;
                      add t [ (if b then v else -v) ])
            end
    done;
    t.rlit.(net)
  end

type verdict = Proven | Refuted of bool array | Undecided

let check_pair t ~budget ~left ~right ~phase =
  let gl = lit_left t left in
  let rl = lit_right t right in
  let rl = if phase then -rl else rl in
  let d = fresh t in
  Tseitin.encode_xor2 ~add:(add t) d gl rl;
  add t [ d ];
  (* Decide variables in reverse allocation order: the XOR difference and
     the miter-adjacent gate variables first, the cone sources last. For
     near-identical cones (the common case after sweeping) the difference
     variables conflict within a few decisions; deciding sources first
     would force the solver to enumerate the whole input cone before unit
     propagation can even reach the point of disagreement. *)
  let decision_order = List.init t.nvars (fun i -> t.nvars - i) in
  match Sat.solve_stats ~decision_order ~max_decisions:budget ~nvars:t.nvars t.clauses with
  | Sat.Unsat, stats -> (Proven, stats)
  | Sat.Sat model, stats -> (Refuted model, stats)
  | Sat.Unknown, stats -> (Undecided, stats)

let lit_value model lit = if lit > 0 then model.(lit) else not model.(-lit)

let left_value t model net =
  let rep, ph = t.canon.(net) in
  let v = t.lvar.(rep) in
  if v <> 0 then model.(v) <> ph
  else match Hashtbl.find_opt t.tie_left net with Some b -> b | None -> false

let right_value t model net =
  let lit = t.rlit.(net) in
  if lit <> 0 then lit_value model lit
  else if t.source_map.(net) >= 0 then left_value t model t.source_map.(net)
  else match Hashtbl.find_opt t.tie_right net with Some b -> b | None -> false
