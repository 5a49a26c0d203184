module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Scoap = Tvs_atpg.Scoap
module Sat_atpg = Tvs_atpg.Sat_atpg
module Metrics = Tvs_obs.Metrics

let m_sat_untestable = Metrics.counter "lint.sat.untestable"
let m_sat_unknown = Metrics.counter "lint.sat.unknown"
let m_sat_decisions = Metrics.counter "lint.sat.decisions"
let m_sat_propagations = Metrics.counter "lint.sat.propagations"

let values c =
  Tvs_sim.Comb.ternary_nets c
    ~pi:(Array.make (Circuit.num_inputs c) Ternary.X)
    ~state:(Array.make (Circuit.num_flops c) Ternary.X)

let line_of lines nm = Option.bind lines (fun tbl -> Hashtbl.find_opt tbl nm)

let constants ?lines c =
  let v = values c in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  for n = Circuit.num_nets c - 1 downto 0 do
    let nm = Circuit.net_name c n in
    (match (Circuit.driver c n, v.(n)) with
    | Circuit.Gate_node _, (Ternary.Zero | Ternary.One) ->
        (* A stuck gate's constant inputs are subsumed by its own D001;
           D003 below only covers gates that still vary. *)
        add
          (Diagnostic.make ~rule:"TVS-D001" ~nets:[ nm ] ?line:(line_of lines nm)
             ~hint:"the driving cone is logically constant; simplify it away"
             (Printf.sprintf "gate output %s is stuck at %c for every input assignment" nm
                (Ternary.to_char v.(n))))
    | Circuit.Gate_node (_, ins), Ternary.X ->
        (* D003: constant inputs to a live gate, each net once per gate. *)
        let seen = Hashtbl.create 4 in
        Array.iter
          (fun i ->
            if Ternary.is_specified v.(i) && not (Hashtbl.mem seen i) then begin
              Hashtbl.add seen i ();
              let inm = Circuit.net_name c i in
              add
                (Diagnostic.make ~rule:"TVS-D003" ~nets:[ inm; nm ]
                   ?line:(line_of lines inm)
                   (Printf.sprintf "input %s of gate %s is always %c" inm nm
                      (Ternary.to_char v.(i))))
            end)
          ins
    | _ -> ());
    (* D002: a primary output pinned through logic. Constant drivers are the
       structural rule N005; gate-driven outputs land here. *)
    if Circuit.is_output c n && Ternary.is_specified v.(n) then
      match Circuit.driver c n with
      | Circuit.Const _ -> ()
      | _ ->
          add
            (Diagnostic.make ~rule:"TVS-D002" ~nets:[ nm ] ?line:(line_of lines nm)
               ~hint:"a constant output observes nothing; drop it from the interface"
               (Printf.sprintf "primary output %s is constant %c" nm (Ternary.to_char v.(n))))
  done;
  !diags

let untestable ?lines ~max_faults ~max_decisions c =
  if max_faults <= 0 then []
  else begin
    let faults = Fault_gen.collapsed c in
    let guide = Scoap.compute c in
    let order = Array.mapi (fun i f -> (Scoap.fault_hardness guide f, i, f)) faults in
    (* Hardest first; index breaks ties so the selection is deterministic. *)
    Array.sort (fun (h1, i1, _) (h2, i2, _) -> if h1 <> h2 then compare h2 h1 else compare i1 i2) order;
    let picked = min max_faults (Array.length order) in
    let diags = ref [] in
    for k = picked - 1 downto 0 do
      let _, _, f = order.(k) in
      let nm = Circuit.net_name c f.Fault.stem in
      let verdict, stats = Sat_atpg.generate_stats ~max_decisions c f in
      Metrics.add m_sat_decisions stats.Tvs_util.Sat.decisions;
      Metrics.add m_sat_propagations stats.Tvs_util.Sat.propagations;
      match verdict with
      | Sat_atpg.Detected _ -> ()
      | Sat_atpg.Untestable ->
          Metrics.incr m_sat_untestable;
          diags :=
            Diagnostic.make ~rule:"TVS-D004" ~nets:[ nm ] ?line:(line_of lines nm)
              ~hint:"the fault site is redundant logic; no vector can ever detect it"
              (Printf.sprintf "stuck-at fault %s is untestable (SAT proof)" (Fault.name c f))
            :: !diags
      | Sat_atpg.Unknown ->
          Metrics.incr m_sat_unknown;
          diags :=
            Diagnostic.make ~rule:"TVS-D005" ~nets:[ nm ] ?line:(line_of lines nm)
              (Printf.sprintf "untestability of fault %s undecided within %d SAT decisions"
                 (Fault.name c f) max_decisions)
            :: !diags
    done;
    !diags
  end
