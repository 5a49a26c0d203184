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
