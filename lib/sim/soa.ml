module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate

(* Opcodes for the folded gate encoding. Negation lives in [inv], so the
   sweep kernels only ever see three fold operators and a copy. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_copy = 3

type t = {
  circuit : Circuit.t;
  order : int array;
  op : int array;
  inv : int array;
  is_gate : bool array;
  level_of : int array;
  depth : int;
  fanin_base : int array;
  fanin : int array;
  sink_base : int array;
  sink : int array;
  level_pop : int array;
  flop_d : int array;
  is_po : bool array;
  is_flop : bool array;
  dflop_base : int array;
  dflop : int array;
  ffr_root : int array;
  ffr_sink : int array;
  ffr_pin : int array;
  ffr_order : int array;
}

let op_inv_of_kind = function
  | Gate.And -> (op_and, 0)
  | Gate.Nand -> (op_and, Lanes.all_mask)
  | Gate.Or -> (op_or, 0)
  | Gate.Nor -> (op_or, Lanes.all_mask)
  | Gate.Xor -> (op_xor, 0)
  | Gate.Xnor -> (op_xor, Lanes.all_mask)
  | Gate.Buf -> (op_copy, 0)
  | Gate.Not -> (op_copy, Lanes.all_mask)

let create circuit =
  let n = Circuit.num_nets circuit in
  let order = Circuit.topo_order circuit in
  let depth = Circuit.depth circuit in
  let op = Array.make n op_copy in
  let inv = Array.make n 0 in
  let is_gate = Array.make n false in
  let level_of = Array.init n (fun net -> Circuit.level circuit net) in
  let fanin_base = Array.make (n + 1) 0 in
  for net = 0 to n - 1 do
    let pins =
      match Circuit.driver circuit net with
      | Circuit.Gate_node (_, ins) -> Array.length ins
      | Circuit.Primary_input | Circuit.Flip_flop _ | Circuit.Const _ -> 0
    in
    fanin_base.(net + 1) <- fanin_base.(net) + pins
  done;
  let fanin = Array.make (max fanin_base.(n) 1) 0 in
  for net = 0 to n - 1 do
    match Circuit.driver circuit net with
    | Circuit.Gate_node (kind, ins) ->
        is_gate.(net) <- true;
        let o, iv = op_inv_of_kind kind in
        op.(net) <- o;
        inv.(net) <- iv;
        Array.iteri (fun p src -> fanin.(fanin_base.(net) + p) <- src) ins
    | Circuit.Const b ->
        (* Empty XOR fold yields 0; the inversion word supplies the
           constant, so consts evaluate through the same kernel as gates. *)
        op.(net) <- op_xor;
        inv.(net) <- Lanes.broadcast b
    | Circuit.Primary_input | Circuit.Flip_flop _ -> ()
  done;
  let sink_base = Array.make (n + 1) 0 in
  for net = 0 to n - 1 do
    let count =
      Array.fold_left
        (fun a (s, _) -> if is_gate.(s) then a + 1 else a)
        0 (Circuit.fanout circuit net)
    in
    sink_base.(net + 1) <- sink_base.(net) + count
  done;
  let sink = Array.make (max sink_base.(n) 1) 0 in
  let fill = Array.copy sink_base in
  for net = 0 to n - 1 do
    Array.iter
      (fun (s, _) ->
        if is_gate.(s) then begin
          sink.(fill.(net)) <- s;
          fill.(net) <- fill.(net) + 1
        end)
      (Circuit.fanout circuit net)
  done;
  let flops = Circuit.flops circuit in
  let flop_d =
    Array.map
      (fun fnet ->
        match Circuit.driver circuit fnet with
        | Circuit.Flip_flop d -> d
        | Circuit.Primary_input | Circuit.Gate_node _ | Circuit.Const _ ->
            invalid_arg "Soa.create: flop list corrupt")
      flops
  in
  let is_po = Array.make n false in
  Array.iter (fun net -> is_po.(net) <- true) (Circuit.outputs circuit);
  let is_flop = Array.make n false in
  Array.iter (fun fnet -> is_flop.(fnet) <- true) flops;
  let dflop_base = Array.make (n + 1) 0 in
  let dcount = Array.make n 0 in
  Array.iter (fun d -> dcount.(d) <- dcount.(d) + 1) flop_d;
  for net = 0 to n - 1 do
    dflop_base.(net + 1) <- dflop_base.(net) + dcount.(net)
  done;
  let dflop = Array.make (max dflop_base.(n) 1) 0 in
  let dfill = Array.copy dflop_base in
  Array.iteri
    (fun i d ->
      dflop.(dfill.(d)) <- flops.(i);
      dfill.(d) <- dfill.(d) + 1)
    flop_d;
  let level_pop = Array.make (depth + 1) 0 in
  for net = 0 to n - 1 do
    if is_gate.(net) then level_pop.(level_of.(net)) <- level_pop.(level_of.(net)) + 1
  done;
  (* Fanout-free regions. A net is a root when it is observed (a PO or a
     flop's D) or has other than exactly one consumer; every other net
     feeds one gate pin, and its region is its sink's. A gate's level
     exceeds its fanins', so a level-descending walk meets each sink
     before the nets it reads. *)
  let ffr_sink = Array.make n (-1) and ffr_pin = Array.make n (-1) in
  for net = 0 to n - 1 do
    match Circuit.fanout circuit net with
    | [| (s, p) |] when is_gate.(s) && not is_po.(net) ->
        ffr_sink.(net) <- s;
        ffr_pin.(net) <- p
    | _ -> ()
  done;
  let ffr_order =
    let start = Array.make (depth + 2) 0 in
    Array.iter (fun l -> start.(depth - l + 1) <- start.(depth - l + 1) + 1) level_of;
    for k = 1 to depth + 1 do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let order = Array.make n 0 in
    for net = 0 to n - 1 do
      let k = depth - level_of.(net) in
      order.(start.(k)) <- net;
      start.(k) <- start.(k) + 1
    done;
    order
  in
  let ffr_root = Array.init n Fun.id in
  Array.iter
    (fun net -> if ffr_sink.(net) >= 0 then ffr_root.(net) <- ffr_root.(ffr_sink.(net)))
    ffr_order;
  {
    circuit;
    order;
    op;
    inv;
    is_gate;
    level_of;
    depth;
    fanin_base;
    fanin;
    sink_base;
    sink;
    level_pop;
    flop_d;
    is_po;
    is_flop;
    dflop_base;
    dflop;
    ffr_root;
    ffr_sink;
    ffr_pin;
    ffr_order;
  }

let circuit t = t.circuit
let num_evals t = Array.length t.order

let eval t values net =
  let base = Array.unsafe_get t.fanin_base net in
  let stop = Array.unsafe_get t.fanin_base (net + 1) in
  let v =
    match Array.unsafe_get t.op net with
    | 0 ->
        let acc = ref Lanes.all_mask in
        for p = base to stop - 1 do
          acc := !acc land Array.unsafe_get values (Array.unsafe_get t.fanin p)
        done;
        !acc
    | 1 ->
        let acc = ref 0 in
        for p = base to stop - 1 do
          acc := !acc lor Array.unsafe_get values (Array.unsafe_get t.fanin p)
        done;
        !acc
    | 2 ->
        let acc = ref 0 in
        for p = base to stop - 1 do
          acc := !acc lxor Array.unsafe_get values (Array.unsafe_get t.fanin p)
        done;
        !acc
    | _ -> Array.unsafe_get values (Array.unsafe_get t.fanin base)
  in
  (v lxor Array.unsafe_get t.inv net) land Lanes.all_mask

let eval_inject t ov values net =
  let base = t.fanin_base.(net) in
  let stop = t.fanin_base.(net + 1) in
  let v =
    match t.op.(net) with
    | 0 ->
        let acc = ref Lanes.all_mask in
        for p = base to stop - 1 do
          acc := !acc land Inject.fetch ov ~values ~sink:net ~pin:(p - base) t.fanin.(p)
        done;
        !acc
    | 1 ->
        let acc = ref 0 in
        for p = base to stop - 1 do
          acc := !acc lor Inject.fetch ov ~values ~sink:net ~pin:(p - base) t.fanin.(p)
        done;
        !acc
    | 2 ->
        let acc = ref 0 in
        for p = base to stop - 1 do
          acc := !acc lxor Inject.fetch ov ~values ~sink:net ~pin:(p - base) t.fanin.(p)
        done;
        !acc
    | _ -> Inject.fetch ov ~values ~sink:net ~pin:0 t.fanin.(base)
  in
  (v lxor t.inv.(net)) land Lanes.all_mask

(* Lanes where pin [pin] of gate [net] decides its output: every other pin
   non-controlling. XOR folds and copies pass every flip. *)
let pin_sens t values net pin =
  let base = Array.unsafe_get t.fanin_base net in
  let stop = Array.unsafe_get t.fanin_base (net + 1) in
  match Array.unsafe_get t.op net with
  | 0 ->
      let acc = ref Lanes.all_mask in
      for p = base to stop - 1 do
        if p - base <> pin then
          acc := !acc land Array.unsafe_get values (Array.unsafe_get t.fanin p)
      done;
      !acc
  | 1 ->
      let acc = ref 0 in
      for p = base to stop - 1 do
        if p - base <> pin then
          acc := !acc lor Array.unsafe_get values (Array.unsafe_get t.fanin p)
      done;
      lnot !acc land Lanes.all_mask
  | _ -> Lanes.all_mask

(* Inside a region each net reaches the root along one path, and a flip on
   it meets every gate of that path as that gate's only changed pin. So the
   flip reaches the root in exactly the lanes where every pin on the path
   is sensitized, and one sweep sink-first computes that for all nets. *)
let trace_ffr t ~good ~obs =
  let order = t.ffr_order in
  for k = 0 to Array.length order - 1 do
    let net = Array.unsafe_get order k in
    let s = Array.unsafe_get t.ffr_sink net in
    Array.unsafe_set obs net
      (if s < 0 then Lanes.all_mask
       else
         let o = Array.unsafe_get obs s in
         if o = 0 then 0 else o land pin_sens t good s (Array.unsafe_get t.ffr_pin net))
  done
