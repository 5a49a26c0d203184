(* Clauses are kept newest first: the list handed to the solver is the
   reverse of the order they were added in. *)
type t = { mutable nvars : int; mutable clauses : int list list }

let create ?(nvars = 0) () = { nvars; clauses = [] }
let nvars t = t.nvars

let fresh t =
  t.nvars <- t.nvars + 1;
  t.nvars

let add t clause = t.clauses <- clause :: t.clauses

(* out <-> AND(ins); NAND/OR/NOR fall out by negating literals. *)
let encode_and t out ins =
  List.iter (fun i -> add t [ -out; i ]) ins;
  add t (out :: List.map (fun i -> -i) ins)

let encode_or t out ins =
  List.iter (fun i -> add t [ out; -i ]) ins;
  add t (-out :: ins)

let xor2 t out a b =
  add t [ -out; a; b ];
  add t [ -out; -a; -b ];
  add t [ out; -a; b ];
  add t [ out; a; -b ]

let encode_equal t x y =
  add t [ -x; y ];
  add t [ x; -y ]

(* out <-> XOR(ins) via a chain of auxiliaries. *)
let encode_xor t out = function
  | [] -> invalid_arg "Tseitin: empty xor"
  | [ single ] -> encode_equal t out single
  | first :: rest ->
      let acc =
        List.fold_left
          (fun acc i ->
            let v = fresh t in
            xor2 t v acc i;
            v)
          first rest
      in
      encode_equal t out acc

let gate t ~out kind ins =
  match kind with
  | Gate.And -> encode_and t out ins
  | Gate.Nand -> encode_and t (-out) ins
  | Gate.Or -> encode_or t out ins
  | Gate.Nor -> encode_or t (-out) ins
  | Gate.Xor -> encode_xor t out ins
  | Gate.Xnor -> encode_xor t (-out) ins
  | Gate.Buf -> (
      match ins with [ i ] -> encode_equal t out i | _ -> invalid_arg "Tseitin: BUF arity")
  | Gate.Not -> (
      match ins with [ i ] -> encode_equal t (-out) i | _ -> invalid_arg "Tseitin: NOT arity")

let solve ?decision_order ?max_decisions t =
  Tvs_util.Sat.solve_stats ?decision_order ?max_decisions ~nvars:t.nvars t.clauses
