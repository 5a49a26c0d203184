module Rng = Tvs_util.Rng
module Wire = Tvs_util.Wire
module Circuit = Tvs_netlist.Circuit
module Xor_scheme = Tvs_scan.Xor_scheme
module Policy = Tvs_core.Policy

type t = int64

let equal = Int64.equal
let compare = Int64.compare
let to_hex = Printf.sprintf "%016Lx"

(* SplitMix64's golden-ratio increment, the same constant Rng steps by. *)
let golden = 0x9E3779B97F4A7C15L

let of_string s =
  let n = String.length s in
  (* Little-endian load of up to 8 bytes; short tails zero-extend, and the
     length seed keeps "a" and "a\x00" distinct. *)
  let word pos len =
    let v = ref 0L in
    for i = len - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
    done;
    !v
  in
  let h = ref (Rng.mix64 (Int64.of_int n)) in
  let fold block = h := Rng.mix64 (Int64.add (Int64.logxor !h block) golden) in
  for k = 0 to (n / 8) - 1 do
    fold (word (k * 8) 8)
  done;
  if n land 7 <> 0 then fold (word (n land lnot 7) (n land 7));
  !h

let combine a b = Rng.mix64 (Int64.add (Int64.logxor (Rng.mix64 a) b) golden)

let of_encoding f =
  let w = Wire.writer () in
  f w;
  of_string (Wire.contents w)

let circuit c = of_encoding (fun w -> Circuit.encode w c)

let config ~(config : Tvs_core.Engine.config) ~label =
  of_encoding (fun w ->
      Wire.write_string w (Xor_scheme.to_string config.scheme);
      Wire.write_string w (Policy.describe_shift config.shift);
      Wire.write_string w (Policy.describe_selection config.selection);
      Wire.write_varint w config.podem.backtrack_limit;
      Wire.write_bool w config.podem.guided;
      Wire.write_varint w config.max_cycles;
      Wire.write_varint w config.stagnation_limit;
      Wire.write_varint w config.max_targets_per_cycle;
      (* config.preflight is NOT digested: it never changes the result of
         a run that passes it, so checkpoints and cache entries written at
         one setting replay at the other. *)
      Wire.write_string w label)

let encode = Wire.write_i64
let decode = Wire.read_i64
