module Wire = Tvs_util.Wire
module Xor_scheme = Tvs_scan.Xor_scheme
module Policy = Tvs_core.Policy
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine

type t = {
  spec : string;
  scale : float;
  scheme : Xor_scheme.t;
  selection : Policy.selection;
  shift : int option;
  label : string;
  circuit_digest : Digest.t;
  config_digest : Digest.t;
  snapshot : Engine.snapshot;
}

let kind = "CKPT"

(* --- component codecs ------------------------------------------------- *)

let write_scheme w s = Wire.write_string w (Xor_scheme.to_string s)

let read_scheme r =
  let s = Wire.read_string r in
  match Xor_scheme.of_string s with
  | Some v -> v
  | None -> raise (Wire.Error (Printf.sprintf "unknown XOR scheme %S" s))

let write_selection w = function
  | Policy.Random_order -> Wire.write_u8 w 0
  | Policy.Hardness_order -> Wire.write_u8 w 1
  | Policy.Most_faults k ->
      Wire.write_u8 w 2;
      Wire.write_varint w k
  | Policy.Weighted k ->
      Wire.write_u8 w 3;
      Wire.write_varint w k

let read_selection r =
  match Wire.read_u8 r with
  | 0 -> Policy.Random_order
  | 1 -> Policy.Hardness_order
  | 2 -> Policy.Most_faults (Wire.read_varint r)
  | 3 -> Policy.Weighted (Wire.read_varint r)
  | v -> raise (Wire.Error (Printf.sprintf "unknown selection tag %d" v))

let write_fault_state w = function
  | Cycle.Fs_uncaught -> Wire.write_u8 w 0
  | Cycle.Fs_caught cycle ->
      Wire.write_u8 w 1;
      Wire.write_varint w cycle
  | Cycle.Fs_hidden contents ->
      Wire.write_u8 w 2;
      Wire.write_bool_array w contents

let read_fault_state r =
  match Wire.read_u8 r with
  | 0 -> Cycle.Fs_uncaught
  | 1 -> Cycle.Fs_caught (Wire.read_varint r)
  | 2 -> Cycle.Fs_hidden (Wire.read_bool_array r)
  | v -> raise (Wire.Error (Printf.sprintf "unknown fault-state tag %d" v))

let write_machine w (p : Cycle.persisted) =
  Wire.write_array write_fault_state w p.Cycle.states;
  Wire.write_bool_array w p.Cycle.good;
  Wire.write_varint w p.Cycle.cycles;
  Wire.write_varint w p.Cycle.last_shift

let read_machine r =
  let states = Wire.read_array read_fault_state r in
  let good = Wire.read_bool_array r in
  let cycles = Wire.read_varint r in
  let last_shift = Wire.read_varint r in
  { Cycle.states; good; cycles; last_shift }

let write_stimulus w (pi, fresh) =
  Wire.write_bool_array w pi;
  Wire.write_bool_array w fresh

let read_stimulus r =
  let pi = Wire.read_bool_array r in
  let fresh = Wire.read_bool_array r in
  (pi, fresh)

let write_snapshot w (s : Engine.snapshot) =
  write_machine w s.Engine.machine;
  Wire.write_list Wire.write_varint w s.Engine.shifts_rev;
  Wire.write_list write_stimulus w s.Engine.stimuli_rev;
  Wire.write_varint w s.Engine.peak_hidden;
  Wire.write_varint w s.Engine.stagnant;
  Wire.write_varint w s.Engine.current_s;
  Wire.write_i64 w s.Engine.rng_state

let read_snapshot r =
  let machine = read_machine r in
  let shifts_rev = Wire.read_list Wire.read_varint r in
  let stimuli_rev = Wire.read_list read_stimulus r in
  let peak_hidden = Wire.read_varint r in
  let stagnant = Wire.read_varint r in
  let current_s = Wire.read_varint r in
  let rng_state = Wire.read_i64 r in
  { Engine.machine; shifts_rev; stimuli_rev; peak_hidden; stagnant; current_s; rng_state }

(* --- whole-checkpoint codec ------------------------------------------- *)

let encode w t =
  Wire.write_string w t.spec;
  Wire.write_f64 w t.scale;
  write_scheme w t.scheme;
  write_selection w t.selection;
  Wire.write_option (fun w s -> Wire.write_varint w s) w t.shift;
  Wire.write_string w t.label;
  Digest.encode w t.circuit_digest;
  Digest.encode w t.config_digest;
  write_snapshot w t.snapshot

let decode r =
  let spec = Wire.read_string r in
  let scale = Wire.read_f64 r in
  let scheme = read_scheme r in
  let selection = read_selection r in
  let shift = Wire.read_option Wire.read_varint r in
  let label = Wire.read_string r in
  let circuit_digest = Digest.decode r in
  let config_digest = Digest.decode r in
  let snapshot = read_snapshot r in
  { spec; scale; scheme; selection; shift; label; circuit_digest; config_digest; snapshot }

let save path t = Codec.to_file ~kind path (fun w -> encode w t)

let load path = Codec.of_file ~kind path decode
