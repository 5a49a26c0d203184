module Circuit = Tvs_netlist.Circuit
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Baseline = Tvs_core.Baseline
module Rng = Tvs_util.Rng
module Store_digest = Tvs_store.Digest

type t = {
  circuit : Circuit.t;
  all_faults : Tvs_fault.Fault.t array;
  faults : Tvs_fault.Fault.t array;
  ctx : Podem.ctx;
  baseline : Baseline.t;
  testable : Tvs_fault.Fault.t array;
}

let of_circuit circuit =
  Tvs_obs.Trace.with_span "prep" ~args:[ ("circuit", Circuit.name circuit) ]
  @@ fun () ->
  let all_faults = Fault_gen.all circuit in
  let faults = Fault_gen.collapse circuit all_faults in
  let ctx = Podem.create circuit in
  let rng = Rng.of_string (Circuit.name circuit ^ ":baseline") in
  let baseline = Baseline.run ~rng ctx ~faults in
  let testable = Baseline.testable_faults baseline faults in
  { circuit; all_faults; faults; ctx; baseline; testable }

let capacity = 64
let table : (Store_digest.t, t) Hashtbl.t = Hashtbl.create 16

let memo ?digest circuit =
  let key = match digest with Some d -> d | None -> Store_digest.circuit circuit in
  match Hashtbl.find_opt table key with
  | Some prep -> prep
  | None ->
      (* A daemon fed an unbounded stream of distinct circuits must not hold
         every preparation forever. *)
      if Hashtbl.length table >= capacity then Hashtbl.reset table;
      let prep = of_circuit circuit in
      Hashtbl.add table key prep;
      prep

let get ?(scale = 1.0) name =
  let profile = Tvs_circuits.Profiles.scale (Tvs_circuits.Profiles.find name) scale in
  memo (Tvs_circuits.Synth.generate profile)

let engine_seed prep label = Rng.of_string (Circuit.name prep.circuit ^ ":" ^ label)
