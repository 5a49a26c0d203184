module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Generator = Tvs_atpg.Generator
module Podem = Tvs_atpg.Podem
module Cost = Tvs_scan.Cost

type t = {
  num_vectors : int;
  vectors : Tvs_atpg.Cube.vector array;
  cubes : Tvs_atpg.Cube.t array;
  redundant : Fault.t list;
  aborted : Fault.t list;
  coverage : float;
  time : int;
  memory : int;
}

let run ~rng ctx ~faults =
  let c = Podem.circuit ctx in
  let gen = Generator.generate ~rng ctx faults in
  let nvec = Generator.num_vectors gen in
  let chain_len = Circuit.num_flops c in
  {
    num_vectors = nvec;
    vectors = gen.Generator.vectors;
    cubes = gen.Generator.cubes;
    redundant = gen.Generator.redundant;
    aborted = gen.Generator.aborted;
    coverage = Generator.coverage gen;
    time = Cost.baseline_time ~chain_len ~nvec;
    memory =
      Cost.baseline_memory ~chain_len ~npi:(Circuit.num_inputs c) ~npo:(Circuit.num_outputs c)
        ~nvec;
  }

let testable_faults t faults =
  let excluded = Fault.Tbl.create 64 in
  List.iter (fun f -> Fault.Tbl.replace excluded f ()) (t.redundant @ t.aborted);
  Array.of_list (List.filter (fun f -> not (Fault.Tbl.mem excluded f)) (Array.to_list faults))
