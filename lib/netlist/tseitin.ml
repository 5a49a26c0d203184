(* out <-> AND(ins); NAND/OR/NOR fall out by negating literals. *)
let encode_and ~add out ins =
  List.iter (fun i -> add [ -out; i ]) ins;
  add (out :: List.map (fun i -> -i) ins)

let encode_or ~add out ins =
  List.iter (fun i -> add [ out; -i ]) ins;
  add (-out :: ins)

let encode_xor2 ~add out a b =
  add [ -out; a; b ];
  add [ -out; -a; -b ];
  add [ out; -a; b ];
  add [ out; a; -b ]

let encode_equal ~add x y =
  add [ -x; y ];
  add [ x; -y ]

(* out <-> XOR(ins) via a chain of auxiliaries. *)
let encode_xor ~fresh ~add out = function
  | [] -> invalid_arg "Tseitin: empty xor"
  | [ single ] -> encode_equal ~add out single
  | first :: rest ->
      let acc =
        List.fold_left
          (fun acc i ->
            let t = fresh () in
            encode_xor2 ~add t acc i;
            t)
          first rest
      in
      encode_equal ~add out acc

let encode_gate ~fresh ~add ~out kind ins =
  match kind with
  | Gate.And -> encode_and ~add out ins
  | Gate.Nand -> encode_and ~add (-out) ins
  | Gate.Or -> encode_or ~add out ins
  | Gate.Nor -> encode_or ~add (-out) ins
  | Gate.Xor -> encode_xor ~fresh ~add out ins
  | Gate.Xnor -> encode_xor ~fresh ~add (-out) ins
  | Gate.Buf -> (
      match ins with [ i ] -> encode_equal ~add out i | _ -> invalid_arg "Tseitin: BUF arity")
  | Gate.Not -> (
      match ins with [ i ] -> encode_equal ~add (-out) i | _ -> invalid_arg "Tseitin: NOT arity")
