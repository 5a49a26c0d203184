type net = int

type driver =
  | Primary_input
  | Flip_flop of net
  | Gate_node of Gate.kind * net array
  | Const of bool

exception Build_error of string

type t = {
  name : string;
  drivers : driver array;
  net_names : string array;
  inputs : net array;
  outputs : net array;
  flops : net array;
  by_name : (string, net) Hashtbl.t;
  fanouts : (net * int) array array;
  output_set : bool array;
  mutable topo : net array option;
  mutable levels : int array option;
  mutable cone_reps : int array option;
}

let name t = t.name
let num_nets t = Array.length t.drivers
let driver t n = t.drivers.(n)
let net_name t n = t.net_names.(n)
let find_net t s =
  match Hashtbl.find_opt t.by_name s with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Circuit.find_net: no net %S in circuit %S" s t.name)
let find_net_opt t s = Hashtbl.find_opt t.by_name s
let inputs t = t.inputs
let outputs t = t.outputs
let flops t = t.flops
let num_inputs t = Array.length t.inputs
let num_outputs t = Array.length t.outputs
let num_flops t = Array.length t.flops
let fanout t n = t.fanouts.(n)
let is_output t n = t.output_set.(n)

let fanins_of = function
  | Primary_input -> [||]
  | Const _ -> [||]
  | Flip_flop d -> [| d |]
  | Gate_node (_, ins) -> ins

let compute_fanouts drivers =
  let n = Array.length drivers in
  let counts = Array.make n 0 in
  let note src = counts.(src) <- counts.(src) + 1 in
  Array.iter (fun d -> Array.iter note (fanins_of d)) drivers;
  let fanouts = Array.map (fun c -> Array.make c (-1, -1)) counts in
  let fill = Array.make n 0 in
  Array.iteri
    (fun sink d ->
      Array.iteri
        (fun pin src ->
          fanouts.(src).(fill.(src)) <- (sink, pin);
          fill.(src) <- fill.(src) + 1)
        (fanins_of d))
    drivers;
  fanouts

(* Kahn's algorithm over the combinational core: flip-flop Q nets and primary
   inputs are sources; a flip-flop's D reference is a sink edge that does not
   feed back combinationally. *)
let compute_topo t =
  let n = num_nets t in
  let indeg = Array.make n 0 in
  let comb_fanins net =
    match t.drivers.(net) with
    | Gate_node (_, ins) -> ins
    | Primary_input | Flip_flop _ | Const _ -> [||]
  in
  for net = 0 to n - 1 do
    indeg.(net) <- Array.length (comb_fanins net)
  done;
  let queue = Queue.create () in
  for net = 0 to n - 1 do
    if indeg.(net) = 0 then Queue.add net queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    incr seen;
    (match t.drivers.(net) with
    | Gate_node _ | Const _ -> order := net :: !order
    | Primary_input | Flip_flop _ -> ());
    Array.iter
      (fun (sink, _pin) ->
        match t.drivers.(sink) with
        | Gate_node _ ->
            indeg.(sink) <- indeg.(sink) - 1;
            if indeg.(sink) = 0 then Queue.add sink queue
        | Primary_input | Flip_flop _ | Const _ -> ())
      t.fanouts.(net)
  done;
  if !seen <> n then failwith (Printf.sprintf "Circuit %s: combinational cycle detected" t.name);
  Array.of_list (List.rev !order)

let topo_order t =
  match t.topo with
  | Some order -> order
  | None ->
      let order = compute_topo t in
      t.topo <- Some order;
      order

let compute_levels t =
  let lv = Array.make (num_nets t) 0 in
  Array.iter
    (fun net ->
      match t.drivers.(net) with
      | Gate_node (_, ins) ->
          let m = Array.fold_left (fun acc i -> max acc lv.(i)) (-1) ins in
          lv.(net) <- m + 1
      | Const _ | Primary_input | Flip_flop _ -> ())
    (topo_order t);
  lv

let levels t =
  match t.levels with
  | Some lv -> lv
  | None ->
      let lv = compute_levels t in
      t.levels <- Some lv;
      lv

let level t n = (levels t).(n)

let depth t = Array.fold_left max 0 (levels t)

(* A cheap cone-locality key: the smallest-numbered observation point
   (primary output, or flip-flop identified by its Q net) the net reaches.
   Faults sharing a representative tend to share most of their downstream
   cone, so sorting by it clusters overlapping cones. *)
let compute_cone_reps t =
  let n = num_nets t in
  let inf = max_int in
  let reps = Array.make n inf in
  let observe_at net =
    let own = if t.output_set.(net) then net else inf in
    Array.fold_left
      (fun acc (sink, _pin) ->
        match t.drivers.(sink) with
        | Flip_flop _ -> min acc sink
        | Gate_node _ -> min acc reps.(sink)
        | Primary_input | Const _ -> acc)
      own t.fanouts.(net)
  in
  let order = topo_order t in
  for k = Array.length order - 1 downto 0 do
    let net = order.(k) in
    reps.(net) <- observe_at net
  done;
  for net = 0 to n - 1 do
    match t.drivers.(net) with
    | Primary_input | Flip_flop _ -> reps.(net) <- observe_at net
    | Gate_node _ | Const _ -> ()
  done;
  reps

let cone_rep t n =
  let reps =
    match t.cone_reps with
    | Some r -> r
    | None ->
        let r = compute_cone_reps t in
        t.cone_reps <- Some r;
        r
  in
  reps.(n)

module Builder = struct
  (* Drivers and names live in growable arrays indexed by net, so
     [connect_flop] is one slot write and [finish] one [Array.sub] each. *)
  type b = {
    bname : string;
    mutable drivers : driver array;
    mutable names_by_net : string array;
    mutable count : int;
    names : (string, net) Hashtbl.t;
    mutable rev_inputs : net list;
    mutable rev_outputs : net list;
    mutable rev_flops : net list;
    pending : (net, unit) Hashtbl.t; (* forward flops awaiting a data net *)
  }

  let create bname =
    {
      bname;
      drivers = Array.make 64 Primary_input;
      names_by_net = Array.make 64 "";
      count = 0;
      names = Hashtbl.create 64;
      rev_inputs = [];
      rev_outputs = [];
      rev_flops = [];
      pending = Hashtbl.create 4;
    }

  let grow b =
    let cap = 2 * Array.length b.drivers in
    let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
    b.drivers <- extend b.drivers Primary_input;
    b.names_by_net <- extend b.names_by_net ""

  let fresh b name_opt prefix d =
    let id = b.count in
    let nm = match name_opt with Some nm -> nm | None -> Printf.sprintf "%s%d" prefix id in
    if Hashtbl.mem b.names nm then raise (Build_error (Printf.sprintf "duplicate net name %S" nm));
    Hashtbl.add b.names nm id;
    if id = Array.length b.drivers then grow b;
    b.drivers.(id) <- d;
    b.names_by_net.(id) <- nm;
    b.count <- id + 1;
    id

  let check_net b n ctx =
    if n < 0 || n >= b.count then raise (Build_error (Printf.sprintf "%s: unknown net %d" ctx n))

  let input b nm =
    let id = fresh b (Some nm) "" Primary_input in
    b.rev_inputs <- id :: b.rev_inputs;
    id

  let const b ?name v = fresh b name "const" (Const v)

  let gate b ?name kind ins =
    List.iter (fun n -> check_net b n "gate fanin") ins;
    let arr = Array.of_list ins in
    if not (Gate.arity_ok kind (Array.length arr)) then
      raise
        (Build_error
           (Printf.sprintf "gate %s: invalid arity %d" (Gate.to_string kind) (Array.length arr)));
    fresh b name "n" (Gate_node (kind, arr))

  let flop b ?name d =
    check_net b d "flop data";
    let id = fresh b name "ff" (Flip_flop d) in
    b.rev_flops <- id :: b.rev_flops;
    id

  let flop_forward b nm =
    let id = fresh b (Some nm) "" (Flip_flop (-1)) in
    b.rev_flops <- id :: b.rev_flops;
    Hashtbl.replace b.pending id ();
    id

  let connect_flop b q d =
    check_net b d "flop data";
    if not (Hashtbl.mem b.pending q) then
      raise (Build_error (Printf.sprintf "connect_flop: net %d is not a pending flop" q));
    Hashtbl.remove b.pending q;
    b.drivers.(q) <- Flip_flop d

  let mark_output b n =
    check_net b n "output";
    b.rev_outputs <- n :: b.rev_outputs

  let finish b =
    if Hashtbl.length b.pending > 0 then begin
      let missing =
        Hashtbl.fold (fun q () acc -> string_of_int q :: acc) b.pending []
      in
      raise (Build_error ("unconnected forward flops: " ^ String.concat ", " missing))
    end;
    let drivers = Array.sub b.drivers 0 b.count in
    let net_names = Array.sub b.names_by_net 0 b.count in
    let outputs = Array.of_list (List.rev b.rev_outputs) in
    let output_set = Array.make (Array.length drivers) false in
    Array.iter (fun n -> output_set.(n) <- true) outputs;
    let t =
      {
        name = b.bname;
        drivers;
        net_names;
        inputs = Array.of_list (List.rev b.rev_inputs);
        outputs;
        flops = Array.of_list (List.rev b.rev_flops);
        by_name = b.names;
        fanouts = compute_fanouts drivers;
        output_set;
        topo = None;
        levels = None;
        cone_reps = None;
      }
    in
    (* Force topo computation now so construction fails fast on cycles. *)
    ignore (topo_order t);
    t
end

(* --- wire codec ------------------------------------------------------- *)

module Wire = Tvs_util.Wire

let kind_tag = function
  | Gate.And -> 0
  | Gate.Nand -> 1
  | Gate.Or -> 2
  | Gate.Nor -> 3
  | Gate.Xor -> 4
  | Gate.Xnor -> 5
  | Gate.Not -> 6
  | Gate.Buf -> 7

let kind_of_tag = function
  | 0 -> Gate.And
  | 1 -> Gate.Nand
  | 2 -> Gate.Or
  | 3 -> Gate.Nor
  | 4 -> Gate.Xor
  | 5 -> Gate.Xnor
  | 6 -> Gate.Not
  | 7 -> Gate.Buf
  | n -> raise (Wire.Error (Printf.sprintf "unknown gate kind tag %d" n))

(* Canonical form: net records in index order (name + driver), then the
   output list. Inputs and flops are recovered from the drivers — their
   arrays hold PI/FF nets in index order by construction — so the encoding
   carries no redundant structure a corrupt file could contradict. *)
let encode w t =
  Wire.write_string w t.name;
  Wire.write_varint w (num_nets t);
  Array.iteri
    (fun net d ->
      Wire.write_string w t.net_names.(net);
      match d with
      | Primary_input -> Wire.write_u8 w 0
      | Flip_flop d ->
          Wire.write_u8 w 1;
          Wire.write_varint w d
      | Gate_node (kind, ins) ->
          Wire.write_u8 w 2;
          Wire.write_u8 w (kind_tag kind);
          Wire.write_array Wire.write_varint w ins
      | Const v ->
          Wire.write_u8 w 3;
          Wire.write_bool w v)
    t.drivers;
  Wire.write_array Wire.write_varint w t.outputs

let decode r =
  try
    let name = Wire.read_string r in
    let n = Wire.read_varint r in
    let b = Builder.create name in
    let pending = ref [] in
    for net = 0 to n - 1 do
      let nm = Wire.read_string r in
      match Wire.read_u8 r with
      | 0 -> ignore (Builder.input b nm)
      | 1 ->
          let d = Wire.read_varint r in
          if d < net then ignore (Builder.flop b ~name:nm d)
          else begin
            (* Forward data reference: connect once every net exists. *)
            let q = Builder.flop_forward b nm in
            pending := (q, d) :: !pending
          end
      | 2 ->
          let kind = kind_of_tag (Wire.read_u8 r) in
          let ins = Wire.read_array Wire.read_varint r in
          ignore (Builder.gate b ~name:nm kind (Array.to_list ins))
      | 3 -> ignore (Builder.const b ~name:nm (Wire.read_bool r))
      | tag -> raise (Wire.Error (Printf.sprintf "unknown driver tag %d for net %d" tag net))
    done;
    List.iter (fun (q, d) -> Builder.connect_flop b q d) !pending;
    Array.iter (Builder.mark_output b) (Wire.read_array Wire.read_varint r);
    Builder.finish b
  with
  | Build_error msg -> raise (Wire.Error ("invalid circuit encoding: " ^ msg))
  | Failure msg -> raise (Wire.Error ("invalid circuit encoding: " ^ msg))

let pp_summary fmt t =
  let gates =
    Array.fold_left
      (fun acc d -> match d with Gate_node _ -> acc + 1 | Primary_input | Flip_flop _ | Const _ -> acc)
      0 t.drivers
  in
  Format.fprintf fmt "%s: %d PI, %d PO, %d FF, %d gates, depth %d" t.name (num_inputs t)
    (num_outputs t) (num_flops t) gates (depth t)
