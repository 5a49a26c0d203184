module Fault_sim = Tvs_fault.Fault_sim

(* Greedy static compaction: fold each cube into the first compatible
   earlier survivor, scanning in reverse generation order. Most survivors
   conflict early, so the non-allocating compatibility test runs first. *)
let merge_cubes cubes =
  let survivors = ref [] in
  let fold_in cube =
    let rec try_merge = function
      | [] -> survivors := cube :: !survivors
      | s :: rest when not (Cube.compatible s cube) -> try_merge rest
      | s :: rest -> (
          match Cube.merge s cube with
          | Some merged ->
              let rec replace = function
                | [] -> []
                | x :: xs -> if x == s then merged :: xs else x :: replace xs
              in
              survivors := replace !survivors
          | None -> try_merge rest)
    in
    try_merge !survivors
  in
  List.iter fold_in (List.rev cubes);
  (* [survivors] is ordered newest-first; restore generation order. *)
  List.rev !survivors

let reverse_order sim ~faults ~vectors =
  let n = Array.length vectors in
  let detected = Array.make (Array.length faults) false in
  let kept = Array.make n false in
  (* Establish the reachable coverage so undetectable faults do not force
     every vector to be kept. *)
  Array.iter
    (fun (v : Cube.vector) ->
      Array.iteri
        (fun i hit -> if hit then detected.(i) <- true)
        (Fault_sim.detected_faults sim ~pi:v.Cube.pi ~state:v.Cube.scan faults))
    vectors;
  let remaining = ref (Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 detected) in
  let todo = Array.map (fun d -> d) detected in
  for k = n - 1 downto 0 do
    if !remaining > 0 then begin
      let v = vectors.(k) in
      let flags = Fault_sim.detected_faults sim ~pi:v.Cube.pi ~state:v.Cube.scan faults in
      let news = ref 0 in
      Array.iteri
        (fun i hit ->
          if hit && todo.(i) then begin
            todo.(i) <- false;
            incr news
          end)
        flags;
      if !news > 0 then begin
        kept.(k) <- true;
        remaining := !remaining - !news
      end
    end
  done;
  Array.of_list
    (List.filteri (fun k _ -> kept.(k)) (Array.to_list vectors))

let compaction_ratio ~before ~after =
  if before = 0 then 1.0 else float_of_int after /. float_of_int before
