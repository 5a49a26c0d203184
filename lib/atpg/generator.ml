module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fault = Tvs_fault.Fault
module Fault_sim = Tvs_fault.Fault_sim
module Rng = Tvs_util.Rng

type t = {
  vectors : Cube.vector array;
  cubes : Cube.t array;
  detected : bool array;
  redundant : Fault.t list;
  aborted : Fault.t list;
}

let coverage t =
  let redundant = List.length t.redundant in
  let considered = Array.length t.detected - redundant in
  if considered <= 0 then 1.0
  else
    float_of_int (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.detected)
    /. float_of_int considered

let num_vectors t = Array.length t.vectors

type options = {
  podem : Podem.config;
  random_patterns : int;
  random_giveup : int;
  compaction : bool;
  fault_dropping : bool;
}

let default_options =
  {
    podem = Podem.default_config;
    random_patterns = 64;
    random_giveup = 5;
    compaction = true;
    fault_dropping = true;
  }

let random_vector rng c =
  {
    Cube.pi = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng);
    scan = Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng);
  }

(* Simulate [vec] against the not-yet-detected faults; flip their [detected]
   flags. Returns how many new faults the vector catches. *)
let drop_detected sim faults detected (vec : Cube.vector) =
  let idxs = Array.make (Array.length faults) 0 and live = ref 0 in
  Array.iteri
    (fun i d ->
      if not d then begin
        idxs.(!live) <- i;
        incr live
      end)
    detected;
  if !live = 0 then 0
  else begin
    let subset = Array.init !live (fun k -> faults.(idxs.(k))) in
    let flags = Fault_sim.detected_faults sim ~pi:vec.Cube.pi ~state:vec.Cube.scan subset in
    let news = ref 0 in
    Array.iteri
      (fun k hit ->
        if hit then begin
          detected.(idxs.(k)) <- true;
          incr news
        end)
      flags;
    !news
  end

let generate ?(options = default_options) ~rng ctx faults =
  let c = Podem.circuit ctx in
  let sim = Fault_sim.create c in
  let n = Array.length faults in
  let detected = Array.make n false in
  let cubes = ref [] in
  let vectors = ref [] in
  let redundant = ref [] in
  let aborted = ref [] in
  (* Every fault in [redundant] or [aborted], for O(1) membership. *)
  let given_up = Fault.Tbl.create 64 in
  let give_up into f =
    into := f :: !into;
    Fault.Tbl.replace given_up f ()
  in
  let keep_vector cube vec =
    cubes := cube :: !cubes;
    vectors := vec :: !vectors
  in
  (* Phase 1: random patterns knock out the easy faults cheaply. *)
  let useless = ref 0 in
  let tried = ref 0 in
  while !tried < options.random_patterns && !useless < options.random_giveup do
    incr tried;
    let vec = random_vector rng c in
    let news = drop_detected sim faults detected vec in
    if news > 0 then begin
      useless := 0;
      keep_vector (Cube.of_vector vec) vec
    end
    else incr useless
  done;
  (* Phase 2: deterministic PODEM per remaining fault, with dropping. *)
  let target i =
    if not detected.(i) then
      match Podem.generate ~config:options.podem ctx faults.(i) with
      | Podem.Detected cube ->
          let vec = Cube.fill_random rng cube in
          detected.(i) <- true;
          if options.fault_dropping then ignore (drop_detected sim faults detected vec);
          keep_vector cube vec
      | Podem.Untestable -> give_up redundant faults.(i)
      | Podem.Aborted -> give_up aborted faults.(i)
  in
  for i = 0 to n - 1 do
    target i
  done;
  (* Phase 3: optional static compaction plus coverage-restoring top-up. *)
  let final_cubes, final_vectors =
    if not options.compaction then (List.rev !cubes, List.rev !vectors)
    else begin
      let merged = Compactor.merge_cubes !cubes in
      let refill cube = Cube.fill_random rng cube in
      let vecs = List.map refill merged in
      (* Re-check coverage with the compacted fill; top up where needed. *)
      Array.fill detected 0 n false;
      List.iter (fun v -> ignore (drop_detected sim faults detected v)) vecs;
      let extra_cubes = ref [] in
      let extra_vecs = ref [] in
      for i = 0 to n - 1 do
        if (not detected.(i)) && not (Fault.Tbl.mem given_up faults.(i)) then
          match Podem.generate ~config:options.podem ctx faults.(i) with
          | Podem.Detected cube ->
              let vec = Cube.fill_random rng cube in
              detected.(i) <- true;
              ignore (drop_detected sim faults detected vec);
              extra_cubes := cube :: !extra_cubes;
              extra_vecs := vec :: !extra_vecs
          | Podem.Untestable -> give_up redundant faults.(i)
          | Podem.Aborted -> give_up aborted faults.(i)
      done;
      (merged @ List.rev !extra_cubes, vecs @ List.rev !extra_vecs)
    end
  in
  (* A backtrack-aborted fault may still have been detected fortuitously by a
     later vector's drop simulation; keep the lists disjoint from [detected]. *)
  let first_index =
    lazy
      (let tbl = Fault.Tbl.create n in
       for i = n - 1 downto 0 do
         Fault.Tbl.replace tbl faults.(i) i
       done;
       tbl)
  in
  let still_missing f =
    match Fault.Tbl.find_opt (Lazy.force first_index) f with
    | Some i -> not detected.(i)
    | None -> false
  in
  {
    vectors = Array.of_list final_vectors;
    cubes = Array.of_list final_cubes;
    detected;
    redundant = List.rev !redundant;
    aborted = List.filter still_missing (List.rev !aborted);
  }
