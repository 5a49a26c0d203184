module Circuit = Tvs_netlist.Circuit

type t = { stem : Circuit.net; branch : (Circuit.net * int) option; stuck : bool }

let equal a b = a.stem = b.stem && a.branch = b.branch && a.stuck = b.stuck

let compare a b = Stdlib.compare (a.stem, a.branch, a.stuck) (b.stem, b.branch, b.stuck)

let hash a = Hashtbl.hash (a.stem, a.branch, a.stuck)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let stem_fault stem stuck = { stem; branch = None; stuck }

let branch_fault stem ~sink ~pin stuck = { stem; branch = Some (sink, pin); stuck }

let to_injection t ~lane =
  { Tvs_sim.Parallel.lane; stuck = t.stuck; stem = t.stem; branch = t.branch }

let name c t =
  let v = if t.stuck then "1" else "0" in
  match t.branch with
  | None -> Printf.sprintf "%s/%s" (Circuit.net_name c t.stem) v
  | Some (sink, pin) ->
      (* Paper style "B-D/1"; the pin index is shown only when the stem feeds
         the same sink on several pins, where the short form is ambiguous. *)
      let same_sink =
        Array.fold_left
          (fun acc (s, _) -> if s = sink then acc + 1 else acc)
          0 (Circuit.fanout c t.stem)
      in
      (* Scan-cell sinks print in lowercase, matching the paper's "E-b/0". *)
      let sink_name =
        let nm = Circuit.net_name c sink in
        match Circuit.driver c sink with
        | Circuit.Flip_flop _ -> String.lowercase_ascii nm
        | Circuit.Primary_input | Circuit.Gate_node _ | Circuit.Const _ -> nm
      in
      if same_sink > 1 then
        Printf.sprintf "%s-%s.%d/%s" (Circuit.net_name c t.stem) sink_name pin v
      else Printf.sprintf "%s-%s/%s" (Circuit.net_name c t.stem) sink_name v

let pp c fmt t = Format.pp_print_string fmt (name c t)
