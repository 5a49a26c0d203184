type kind = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

let equal (a : kind) b = a = b

let arity_ok kind n =
  match kind with
  | Not | Buf -> n = 1
  | And | Nand | Or | Nor -> n >= 1
  | Xor | Xnor -> n >= 2

let of_string s =
  match String.uppercase_ascii s with
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | "NOT" -> Some Not
  | "BUF" | "BUFF" -> Some Buf
  | _ -> None

let to_string = function
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Not -> "NOT"
  | Buf -> "BUFF"

let fold_bool op seed inputs =
  let acc = ref seed in
  Array.iter (fun v -> acc := op !acc v) inputs;
  !acc

let eval_bool kind inputs =
  match kind with
  | And -> fold_bool ( && ) true inputs
  | Nand -> not (fold_bool ( && ) true inputs)
  | Or -> fold_bool ( || ) false inputs
  | Nor -> not (fold_bool ( || ) false inputs)
  | Xor -> fold_bool ( <> ) false inputs
  | Xnor -> not (fold_bool ( <> ) false inputs)
  | Not -> not inputs.(0)
  | Buf -> inputs.(0)

let eval_ternary kind inputs =
  let open Tvs_logic.Ternary in
  match kind with
  | And -> fold_bool t_and One inputs
  | Nand -> t_not (fold_bool t_and One inputs)
  | Or -> fold_bool t_or Zero inputs
  | Nor -> t_not (fold_bool t_or Zero inputs)
  | Xor -> fold_bool t_xor Zero inputs
  | Xnor -> t_not (fold_bool t_xor Zero inputs)
  | Not -> t_not inputs.(0)
  | Buf -> inputs.(0)

let eval_fivev kind inputs =
  let open Tvs_logic.Fivev in
  match kind with
  | And -> fold_bool f_and One inputs
  | Nand -> f_not (fold_bool f_and One inputs)
  | Or -> fold_bool f_or Zero inputs
  | Nor -> f_not (fold_bool f_or Zero inputs)
  | Xor -> fold_bool f_xor Zero inputs
  | Xnor -> f_not (fold_bool f_xor Zero inputs)
  | Not -> f_not inputs.(0)
  | Buf -> inputs.(0)

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Xor | Xnor | Not | Buf -> None

let inversion = function
  | Nand | Nor | Xnor | Not -> true
  | And | Or | Xor | Buf -> false

let pp fmt k = Format.pp_print_string fmt (to_string k)
