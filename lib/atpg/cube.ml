module Ternary = Tvs_logic.Ternary
module Circuit = Tvs_netlist.Circuit

type t = { pi : Ternary.t array; scan : Ternary.t array }

type vector = { pi : bool array; scan : bool array }

let fully_x c : t =
  {
    pi = Array.make (Circuit.num_inputs c) Ternary.X;
    scan = Array.make (Circuit.num_flops c) Ternary.X;
  }

let copy (t : t) : t = { pi = Array.copy t.pi; scan = Array.copy t.scan }

let equal (a : t) (b : t) = a.pi = b.pi && a.scan = b.scan

let count_specified arr =
  Array.fold_left (fun acc v -> if Ternary.is_specified v then acc + 1 else acc) 0 arr

let specified_bits (t : t) = count_specified t.pi + count_specified t.scan

let total_bits (t : t) = Array.length t.pi + Array.length t.scan

let arrays_compatible a b =
  let n = Array.length a in
  let rec from i = i >= n || (Ternary.compatible a.(i) b.(i) && from (i + 1)) in
  n = Array.length b && from 0

let compatible (a : t) (b : t) = arrays_compatible a.pi b.pi && arrays_compatible a.scan b.scan

let merge_arrays a b =
  let out = Array.make (Array.length a) Ternary.X in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      match Ternary.merge v b.(i) with
      | Some m -> out.(i) <- m
      | None -> ok := false)
    a;
  if !ok then Some out else None

let merge (a : t) (b : t) =
  if Array.length a.pi <> Array.length b.pi || Array.length a.scan <> Array.length b.scan then None
  else
    match (merge_arrays a.pi b.pi, merge_arrays a.scan b.scan) with
    | Some pi, Some scan -> Some ({ pi; scan } : t)
    | None, _ | _, None -> None

let fill_with f (t : t) : vector =
  let fill arr = Array.map (function Ternary.Zero -> false | Ternary.One -> true | Ternary.X -> f ()) arr in
  { pi = fill t.pi; scan = fill t.scan }

let fill_random rng t = fill_with (fun () -> Tvs_util.Rng.bool rng) t

let fill_const b t = fill_with (fun () -> b) t

let of_vector (v : vector) : t =
  { pi = Array.map Ternary.of_bool v.pi; scan = Array.map Ternary.of_bool v.scan }

let chars arr = String.init (Array.length arr) (fun i -> Ternary.to_char arr.(i))

let to_string (t : t) = chars t.pi ^ "|" ^ chars t.scan

let pp fmt t = Format.pp_print_string fmt (to_string t)
