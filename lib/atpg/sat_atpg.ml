module Circuit = Tvs_netlist.Circuit
module Tseitin = Tvs_netlist.Tseitin
module Ternary = Tvs_logic.Ternary
module Fault = Tvs_fault.Fault
module Sat = Tvs_util.Sat

type result = Detected of Cube.t | Untestable | Unknown

(* CNF construction state: variable 0 is unused; net [n]'s fault-free copy
   is variable [n + 1]; further variables are allocated on demand. *)
type builder = { mutable nvars : int; mutable clauses : int list list }

let fresh b =
  b.nvars <- b.nvars + 1;
  b.nvars

let add b clause = b.clauses <- clause :: b.clauses

let encode_gate b ~out kind ins =
  Tseitin.encode_gate ~fresh:(fun () -> fresh b) ~add:(add b) ~out kind ins

(* The fault's combinational output cone (as in Podem.mark_tfo). *)
let fanout_cone c (fault : Fault.t) =
  let cone = Hashtbl.create 64 in
  let obs_flops = Hashtbl.create 8 in
  let rec visit net =
    if not (Hashtbl.mem cone net) then begin
      Hashtbl.add cone net ();
      Array.iter
        (fun (sink, _pin) ->
          match Circuit.driver c sink with
          | Circuit.Flip_flop _ -> Hashtbl.replace obs_flops sink ()
          | Circuit.Gate_node _ -> visit sink
          | Circuit.Primary_input | Circuit.Const _ -> ())
        (Circuit.fanout c net)
    end
  in
  (match fault.branch with
  | None -> visit fault.stem
  | Some (sink, _) -> (
      match Circuit.driver c sink with
      | Circuit.Flip_flop _ -> Hashtbl.replace obs_flops sink ()
      | Circuit.Gate_node _ -> visit sink
      | Circuit.Primary_input | Circuit.Const _ -> ()));
  (cone, obs_flops)

let generate_stats ?constraints ?(max_decisions = 200_000) c (fault : Fault.t) =
  let n = Circuit.num_nets c in
  let b = { nvars = n; clauses = [] } in
  let good net = net + 1 in
  (* Fault-free copy: the whole combinational core. *)
  Array.iter
    (fun net ->
      match Circuit.driver c net with
      | Circuit.Gate_node (kind, ins) ->
          encode_gate b ~out:(good net) kind (Array.to_list (Array.map good ins))
      | Circuit.Const v -> add b [ (if v then good net else -(good net)) ]
      | Circuit.Primary_input | Circuit.Flip_flop _ -> ())
    (Circuit.topo_order c);
  (* Scan-cell constraints. *)
  (match constraints with
  | None -> ()
  | Some arr ->
      let flops = Circuit.flops c in
      if Array.length arr <> Array.length flops then
        invalid_arg "Sat_atpg.generate: constraints length mismatch";
      Array.iteri
        (fun i v ->
          match v with
          | Ternary.X -> ()
          | Ternary.One -> add b [ good flops.(i) ]
          | Ternary.Zero -> add b [ -(good flops.(i)) ])
        arr);
  (* Faulty copy over the cone. *)
  let cone, obs_flops = fanout_cone c fault in
  let faulty_var = Hashtbl.create 64 in
  let faulty net =
    match Hashtbl.find_opt faulty_var net with
    | Some v -> v
    | None ->
        let v = fresh b in
        Hashtbl.add faulty_var net v;
        v
  in
  let stuck_lit v = if fault.stuck then v else -v in
  (* The value net [src] presents to pin [pin] of [sink] in the faulty copy. *)
  let faulty_input ~sink ~pin src =
    let is_branch =
      match fault.branch with Some (s, p) -> s = sink && p = pin | None -> false
    in
    if is_branch then begin
      let v = fresh b in
      add b [ stuck_lit v ];
      v
    end
    else if (fault.branch = None && src = fault.stem) || Hashtbl.mem cone src then faulty src
    else good src
  in
  (match fault.branch with
  | None -> add b [ stuck_lit (faulty fault.stem) ]
  | Some _ -> ());
  Array.iter
    (fun net ->
      if Hashtbl.mem cone net && not (fault.branch = None && net = fault.stem) then
        match Circuit.driver c net with
        | Circuit.Gate_node (kind, ins) ->
            let f_ins = Array.to_list (Array.mapi (fun pin src -> faulty_input ~sink:net ~pin src) ins) in
            encode_gate b ~out:(faulty net) kind f_ins
        | Circuit.Primary_input | Circuit.Flip_flop _ | Circuit.Const _ -> ())
    (Circuit.topo_order c);
  (* Detection: some observation point differs. *)
  let diffs = ref [] in
  let add_diff glit flit =
    let d = fresh b in
    Tseitin.encode_xor2 ~add:(add b) d glit flit;
    diffs := d :: !diffs
  in
  Array.iter
    (fun net ->
      if Circuit.is_output c net && (Hashtbl.mem cone net || (fault.branch = None && net = fault.stem))
      then add_diff (good net) (faulty net))
    (Circuit.outputs c);
  Array.iter
    (fun fnet ->
      match Circuit.driver c fnet with
      | Circuit.Flip_flop d ->
          let watch =
            Hashtbl.mem obs_flops fnet || Hashtbl.mem cone d
            || (fault.branch = None && d = fault.stem)
          in
          if watch then begin
            let flit =
              match fault.branch with
              | Some (sink, pin) when sink = fnet && pin = 0 ->
                  let v = fresh b in
                  add b [ stuck_lit v ];
                  v
              | Some _ | None ->
                  if Hashtbl.mem cone d || (fault.branch = None && d = fault.stem) then faulty d
                  else good d
            in
            add_diff (good d) flit
          end
      | Circuit.Primary_input | Circuit.Gate_node _ | Circuit.Const _ -> ())
    (Circuit.flops c);
  if !diffs = [] then (Untestable, Sat.no_stats)
  else begin
    add b !diffs;
    let decision_order =
      Array.to_list (Array.map good (Circuit.inputs c))
      @ Array.to_list (Array.map good (Circuit.flops c))
    in
    match Sat.solve_stats ~decision_order ~max_decisions ~nvars:b.nvars b.clauses with
    | Sat.Unknown, stats -> (Unknown, stats)
    | Sat.Unsat, stats -> (Untestable, stats)
    | Sat.Sat model, stats ->
        let pi =
          Array.map (fun net -> Ternary.of_bool model.(good net)) (Circuit.inputs c)
        in
        let scan =
          Array.map (fun net -> Ternary.of_bool model.(good net)) (Circuit.flops c)
        in
        (Detected ({ pi; scan } : Cube.t), stats)
  end

let generate ?constraints ?max_decisions c fault =
  fst (generate_stats ?constraints ?max_decisions c fault)
