module Circuit = Tvs_netlist.Circuit
module Tseitin = Tvs_netlist.Tseitin
module Sat = Tvs_util.Sat

(* One side of the miter as the cone walker sees it. [resolve] maps a net
   to the signed net whose literal it takes; [borrow] gives a literal from
   the other side for a net that must not encode its own cone (0 where it
   must). *)
type side = {
  circuit : Circuit.t;
  lits : int array;  (* resolved net -> CNF literal, 0 = not yet encoded *)
  ties : (int, bool) Hashtbl.t;
  resolve : Circuit.net -> Circuit.net * bool;
  borrow : Circuit.net -> int;
}

type t = { cnf : Tseitin.t; left : side; right : side; source_map : int array }

let signed ph v = if ph then -v else v

(* A unit clause pinning variable [v] to a constant or tie value. *)
let pin cnf v = function Some b -> Tseitin.add cnf [ (if b then v else -v) ] | None -> ()

(* Iterative post-order cone encoding: push [(n, false)] to visit, pop and
   re-push as [(n, true)] once the fanins are queued, encode on the [true]
   pop (fanins are then guaranteed encoded — diamonds are skipped by the
   already-encoded guard). Only resolved nets are pushed, so on the left a
   BUF/NOT chain or duplicate gate borrows its representative's literal
   (with the canon phase folded in): equivalent left nets share one CNF
   variable, which is what lets a final output miter over a substituted
   right cone collapse by unit propagation instead of needing a full cone
   proof. *)
let lit cnf side net =
  let lit_of i =
    let k, ph = side.resolve i in
    signed ph side.lits.(k)
  in
  let alloc n =
    let v = Tseitin.fresh cnf in
    side.lits.(n) <- v;
    v
  in
  let rec walk = function
    | [] -> ()
    | (n, _) :: rest when side.lits.(n) <> 0 -> walk rest
    | (n, ready) :: rest -> (
        let b = side.borrow n in
        if b <> 0 then begin
          side.lits.(n) <- b;
          walk rest
        end
        else
          match Circuit.driver side.circuit n with
          | Circuit.Gate_node (kind, ins) when ready ->
              let v = alloc n in
              Tseitin.gate cnf ~out:v kind (Array.to_list (Array.map lit_of ins));
              walk rest
          | Circuit.Gate_node (_, ins) ->
              walk
                (Array.fold_left
                   (fun stack i ->
                     let k, _ = side.resolve i in
                     if side.lits.(k) = 0 then (k, false) :: stack else stack)
                   ((n, true) :: rest) ins)
          | Circuit.Primary_input | Circuit.Flip_flop _ ->
              pin cnf (alloc n) (Hashtbl.find_opt side.ties n);
              walk rest
          | Circuit.Const b ->
              pin cnf (alloc n) (Some b);
              walk rest)
  in
  walk [ (fst (side.resolve net), false) ];
  lit_of net

let ties_of l =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) l;
  tbl

let create ~left ~right ~canon ~source_map ~subst ~tie_left ~tie_right () =
  if Array.length canon <> Circuit.num_nets left then invalid_arg "Miter.create: canon length";
  if Array.length source_map <> Circuit.num_nets right then
    invalid_arg "Miter.create: source_map length";
  if Array.length subst <> Circuit.num_nets right then invalid_arg "Miter.create: subst length";
  let cnf = Tseitin.create () in
  let lside =
    {
      circuit = left;
      lits = Array.make (Circuit.num_nets left) 0;
      ties = ties_of tie_left;
      resolve = (fun n -> canon.(n));
      borrow = (fun _ -> 0);
    }
  in
  let rties = ties_of tie_right in
  (* A matched source shares the left variable, and a tie registered on its
     right name pins the shared variable; a proven substitution takes the
     left literal instead of encoding the right cone. *)
  let borrow n =
    if source_map.(n) >= 0 then begin
      let v = lit cnf lside source_map.(n) in
      pin cnf v (Hashtbl.find_opt rties n);
      v
    end
    else match subst.(n) with Some (l, negated) -> signed negated (lit cnf lside l) | None -> 0
  in
  let rside =
    {
      circuit = right;
      lits = Array.make (Circuit.num_nets right) 0;
      ties = rties;
      resolve = (fun n -> (n, false));
      borrow;
    }
  in
  { cnf; left = lside; right = rside; source_map }

type verdict = Proven | Refuted of bool array | Undecided

let check_pair t ~budget ~left ~right ~phase =
  let gl = lit t.cnf t.left left in
  let rl = signed phase (lit t.cnf t.right right) in
  let d = Tseitin.fresh t.cnf in
  Tseitin.xor2 t.cnf d gl rl;
  Tseitin.add t.cnf [ d ];
  (* Decide variables in reverse allocation order: the XOR difference and
     the miter-adjacent gate variables first, the cone sources last. For
     near-identical cones (the common case after sweeping) the difference
     variables conflict within a few decisions; deciding sources first
     would force the solver to enumerate the whole input cone before unit
     propagation can even reach the point of disagreement. *)
  let n = Tseitin.nvars t.cnf in
  let decision_order = List.init n (fun i -> n - i) in
  match Tseitin.solve ~decision_order ~max_decisions:budget t.cnf with
  | Sat.Unsat, stats -> (Proven, stats)
  | Sat.Sat model, stats -> (Refuted model, stats)
  | Sat.Unknown, stats -> (Undecided, stats)

(* A net outside every cone reads its tie value, or [false]: the verdict
   does not depend on it. *)
let value side model net =
  let k, ph = side.resolve net in
  let l = side.lits.(k) in
  if l <> 0 then (if l > 0 then model.(l) else not model.(-l)) <> ph
  else match Hashtbl.find_opt side.ties net with Some b -> b | None -> false

let left_value t model net = value t.left model net

let right_value t model net =
  if t.right.lits.(net) = 0 && t.source_map.(net) >= 0 then left_value t model t.source_map.(net)
  else value t.right model net
