module Fivev = Tvs_logic.Fivev
module Ternary = Tvs_logic.Ternary
module Soa = Tvs_sim.Soa

let zero = 0
let one = 1
let d = 2
let dbar = 3
let x = 4

let by_code = [| Fivev.Zero; Fivev.One; Fivev.D; Fivev.Dbar; Fivev.X |]
let of_code c = by_code.(c)

let code = function
  | Fivev.Zero -> zero
  | Fivev.One -> one
  | Fivev.D -> d
  | Fivev.Dbar -> dbar
  | Fivev.X -> x

let of_ternary = function Ternary.Zero -> zero | Ternary.One -> one | Ternary.X -> x
let to_ternary c = Fivev.good (of_code c)

let table n f = String.init n (fun i -> Char.chr (code (f i)))

(* One 25-entry row per Soa fold opcode (0 = AND, 1 = OR, 2 = XOR), indexed
   [25 * op + 5 * acc + input]. *)
let fold_tab =
  let ops = [| Fivev.f_and; Fivev.f_or; Fivev.f_xor |] in
  table 75 (fun i -> ops.(i / 25) (of_code (i / 5 mod 5)) (of_code (i mod 5)))

let not_tab = table 5 (fun i -> Fivev.f_not (of_code i))

(* Indexed [5 * stuck + v]. *)
let site_tab =
  table 10 (fun i ->
      match Fivev.good (of_code (i mod 5)) with
      | Ternary.X -> Fivev.X
      | g -> Fivev.of_pair g (Ternary.of_bool (i >= 5)))

let site stuck v = Char.code (String.get site_tab (if stuck then 5 + v else v))

(* The hot path reads unchecked: [Soa.create] builds consistent CSR tables,
   the caller's [values] covers every net, and codes stay below 5, so every
   table index stays below 75. *)
let get values net = Char.code (Bytes.unsafe_get values net)
let step row acc v = Char.code (String.unsafe_get fold_tab (row + (5 * acc) + v))

let finish (soa : Soa.t) net acc =
  if Array.unsafe_get soa.inv net <> 0 then Char.code (String.unsafe_get not_tab acc) else acc

(* Only constants have no fanin: an empty XOR fold, which the inversion word
   turns into [one] for [Const true]. The copy opcode has exactly one fanin,
   so its row index is never used. *)
let eval (soa : Soa.t) values net =
  let base = Array.unsafe_get soa.fanin_base net in
  let stop = Array.unsafe_get soa.fanin_base (net + 1) in
  let acc = ref (if stop > base then get values (Array.unsafe_get soa.fanin base) else zero) in
  let row = 25 * Array.unsafe_get soa.op net in
  for p = base + 1 to stop - 1 do
    acc := step row !acc (get values (Array.unsafe_get soa.fanin p))
  done;
  finish soa net !acc

let eval_pin (soa : Soa.t) values net ~pin v =
  let base = soa.fanin_base.(net) and stop = soa.fanin_base.(net + 1) in
  let read p = if p - base = pin then v else get values soa.fanin.(p) in
  let acc = ref (if stop > base then read base else zero) in
  let row = 25 * soa.op.(net) in
  for p = base + 1 to stop - 1 do
    acc := step row !acc (read p)
  done;
  finish soa net !acc
