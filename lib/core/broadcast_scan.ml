module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Cube = Tvs_atpg.Cube
module Cost = Tvs_scan.Cost
module Fault_sim = Tvs_fault.Fault_sim
module Parallel = Tvs_sim.Parallel
module Rng = Tvs_util.Rng

type result = {
  partitions : int;
  parallel_vectors : int;
  serial_vectors : int;
  time : int;
  memory : int;
  time_ratio : float;
  memory_ratio : float;
  coverage : float;
}

(* Replicate a short pattern across the partitions (remainder cells continue
   the pattern cyclically, as a physical broadcast would). *)
let replicate ~chain_len ~seg pattern =
  Array.init chain_len (fun i -> pattern.(i mod seg))

(* The broadcast phase applies at most [max_parallel] patterns. *)
let max_parallel = 512
let giveup = 10

let run c ~rng ~partitions ~faults ~fallback =
  if partitions <= 0 then invalid_arg "Broadcast_scan.run: partitions must be positive";
  let chain_len = Circuit.num_flops c in
  let seg = max 1 (chain_len / partitions) in
  let npi = Circuit.num_inputs c and npo = Circuit.num_outputs c in
  let sim = Fault_sim.create c in
  let n_faults = Array.length faults in
  let detected = Array.make n_faults false in
  let drop vectors = Fault_sim.drop_detected sim ~vectors faults detected in
  (* Phase 1: random broadcast patterns, as the scheme's parallel mode
     applies; stop after [giveup] consecutive useless patterns. *)
  let parallel = ref 0 in
  let useless = ref 0 in
  while !parallel + !useless < max_parallel && !useless < giveup do
    let pattern = Array.init seg (fun _ -> Rng.bool rng) in
    let scan = replicate ~chain_len ~seg pattern in
    let pi = Array.init npi (fun _ -> Rng.bool rng) in
    if (drop [| (pi, scan) |]).(0) > 0 then begin
      incr parallel;
      useless := 0
    end
    else incr useless
  done;
  (* Phase 2: serial full-shift vectors from the known-good set cover the
     remaining faults (greedy in order). *)
  let news = drop (Array.map (fun (v : Cube.vector) -> (v.Cube.pi, v.Cube.scan)) fallback) in
  let serial = Array.fold_left (fun acc k -> if k > 0 then acc + 1 else acc) 0 news in
  let covered = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 detected in
  let n = !parallel + serial in
  (* Parallel loads cost one partition length; their responses drain through
     per-partition outputs into a MISR (hardware this scheme needs and the
     stitched flow does not), so unloads overlap loads. Serial vectors cost
     a full chain length each. *)
  let time = (!parallel * seg) + (serial * chain_len) + chain_len in
  let memory = (!parallel * (seg + npi + npo)) + (serial * ((2 * chain_len) + npi + npo)) in
  let base_time = Cost.baseline_time ~chain_len ~nvec:n in
  let base_memory = Cost.baseline_memory ~chain_len ~npi ~npo ~nvec:n in
  {
    partitions;
    parallel_vectors = !parallel;
    serial_vectors = serial;
    time;
    memory;
    time_ratio = (if base_time = 0 then 1.0 else float_of_int time /. float_of_int base_time);
    memory_ratio =
      (if base_memory = 0 then 1.0 else float_of_int memory /. float_of_int base_memory);
    coverage = (if n_faults = 0 then 1.0 else float_of_int covered /. float_of_int n_faults);
  }
