module Circuit = Tvs_netlist.Circuit

type injection = {
  lane : int;
  stuck : bool;
  stem : Circuit.net;
  branch : (Circuit.net * int) option;
}

(* A fixed-capacity int stack: the cells an install touched, in touch
   order, so [clear] and [compile] visit exactly those. *)
type stack = { items : int array; mutable len : int }

let stack cap = { items = Array.make (max cap 1) 0; len = 0 }

let push s x =
  s.items.(s.len) <- x;
  s.len <- s.len + 1

let drain s f =
  for k = 0 to s.len - 1 do
    f s.items.(k)
  done;
  s.len <- 0

(* Branch overrides live in a CSR-style flat table: slot = pin_base.(sink) +
   pin, one slot per consumer pin in the circuit. Keeps install/clear at a
   handful of array writes per injection — no hashing — which matters because
   both simulators reinstall the override set once per chunk. Each cell is
   pushed on its stack the first time an install touches it, so the stacks
   never hold a duplicate and never outgrow their circuit-sized capacity. *)
type t = {
  stem_set : int array;  (* per-net force-to-1 lane masks *)
  stem_clear : int array;  (* per-net force-to-0 lane masks *)
  sink_flagged : bool array;  (* sinks with at least one branch override *)
  pin_base : int array;  (* first slot per sink net *)
  branch_set : int array;  (* per-slot force-to-1 lane masks *)
  branch_clear : int array;  (* per-slot force-to-0 lane masks *)
  touched_stems : stack;
  touched_sinks : stack;
  touched_slots : stack;
}

let create circuit =
  let n = Circuit.num_nets circuit in
  let pin_base = Array.make (n + 1) 0 in
  for net = 0 to n - 1 do
    let pins =
      match Circuit.driver circuit net with
      | Circuit.Gate_node (_, ins) -> Array.length ins
      | Circuit.Flip_flop _ -> 1  (* consumes its D net at pin 0 *)
      | Circuit.Primary_input | Circuit.Const _ -> 0
    in
    pin_base.(net + 1) <- pin_base.(net) + pins
  done;
  let slots = pin_base.(n) in
  {
    stem_set = Array.make n 0;
    stem_clear = Array.make n 0;
    sink_flagged = Array.make n false;
    pin_base;
    branch_set = Array.make (max slots 1) 0;
    branch_clear = Array.make (max slots 1) 0;
    touched_stems = stack n;
    touched_sinks = stack n;
    touched_slots = stack slots;
  }

(* Undo only what the last install touched: time proportional to the
   injection count, independent of circuit size. *)
let clear t =
  drain t.touched_stems (fun n ->
      t.stem_set.(n) <- 0;
      t.stem_clear.(n) <- 0);
  drain t.touched_sinks (fun n -> t.sink_flagged.(n) <- false);
  drain t.touched_slots (fun slot ->
      t.branch_set.(slot) <- 0;
      t.branch_clear.(slot) <- 0)

let add t inj =
  if inj.lane < 0 || inj.lane >= Lanes.width then invalid_arg "Parallel.run: lane out of range";
  let bit = Lanes.lane_bit inj.lane in
  match inj.branch with
  | None ->
      if t.stem_set.(inj.stem) = 0 && t.stem_clear.(inj.stem) = 0 then
        push t.touched_stems inj.stem;
      if inj.stuck then t.stem_set.(inj.stem) <- t.stem_set.(inj.stem) lor bit
      else t.stem_clear.(inj.stem) <- t.stem_clear.(inj.stem) lor bit
  | Some (sink, pin) ->
      let slot = t.pin_base.(sink) + pin in
      if pin < 0 || slot >= t.pin_base.(sink + 1) then
        invalid_arg "Parallel.run: branch pin out of range";
      if not t.sink_flagged.(sink) then begin
        t.sink_flagged.(sink) <- true;
        push t.touched_sinks sink
      end;
      if t.branch_set.(slot) = 0 && t.branch_clear.(slot) = 0 then push t.touched_slots slot;
      if inj.stuck then t.branch_set.(slot) <- t.branch_set.(slot) lor bit
      else t.branch_clear.(slot) <- t.branch_clear.(slot) lor bit

(* A rejected injection undoes the whole call, so no half-installed set
   outlives the exception. *)
let add_all t iter injections =
  try iter (add t) injections
  with Invalid_argument _ as e ->
    clear t;
    raise e

let install t injections = add_all t List.iter injections

type plan = {
  stems : Circuit.net array;
  stem_set_m : int array;
  stem_clear_m : int array;
  flag_sinks : Circuit.net array;
  slots : int array;
  slot_set_m : int array;
  slot_clear_m : int array;
  branch_stems : Circuit.net array;
  branch_sinks : Circuit.net array;
  branch_pins : int array;
}

(* Reuse [add]'s merge-and-validate logic: add into [t], snapshot the
   touched cells with their merged masks, then undo. [t] is only a scratch
   here — its tables are byte-identical before and after. Cells are listed
   newest first, the order an install has always recorded them in. *)
let compile t (injections : injection array) =
  add_all t Array.iter injections;
  let newest_first s f = Array.init s.len (fun k -> f s.items.(s.len - 1 - k)) in
  (* One row per branch injection, in injection order. *)
  let nbranch =
    Array.fold_left (fun acc i -> if i.branch = None then acc else acc + 1) 0 injections
  in
  let branch_stems = Array.make nbranch 0
  and branch_sinks = Array.make nbranch 0
  and branch_pins = Array.make nbranch 0 in
  let k = ref 0 in
  Array.iter
    (fun i ->
      Option.iter
        (fun (sink, pin) ->
          branch_stems.(!k) <- i.stem;
          branch_sinks.(!k) <- sink;
          branch_pins.(!k) <- pin;
          incr k)
        i.branch)
    injections;
  let plan =
    {
      stems = newest_first t.touched_stems Fun.id;
      stem_set_m = newest_first t.touched_stems (Array.get t.stem_set);
      stem_clear_m = newest_first t.touched_stems (Array.get t.stem_clear);
      flag_sinks = newest_first t.touched_sinks Fun.id;
      slots = newest_first t.touched_slots Fun.id;
      slot_set_m = newest_first t.touched_slots (Array.get t.branch_set);
      slot_clear_m = newest_first t.touched_slots (Array.get t.branch_clear);
      branch_stems;
      branch_sinks;
      branch_pins;
    }
  in
  clear t;
  plan

let install_plan t p =
  let stems = p.stems in
  for i = 0 to Array.length stems - 1 do
    let n = Array.unsafe_get stems i in
    t.stem_set.(n) <- Array.unsafe_get p.stem_set_m i;
    t.stem_clear.(n) <- Array.unsafe_get p.stem_clear_m i
  done;
  Array.iter (fun s -> t.sink_flagged.(s) <- true) p.flag_sinks;
  let slots = p.slots in
  for i = 0 to Array.length slots - 1 do
    let s = Array.unsafe_get slots i in
    t.branch_set.(s) <- Array.unsafe_get p.slot_set_m i;
    t.branch_clear.(s) <- Array.unsafe_get p.slot_clear_m i
  done

let clear_plan t p =
  Array.iter
    (fun n ->
      t.stem_set.(n) <- 0;
      t.stem_clear.(n) <- 0)
    p.stems;
  Array.iter (fun s -> t.sink_flagged.(s) <- false) p.flag_sinks;
  Array.iter
    (fun s ->
      t.branch_set.(s) <- 0;
      t.branch_clear.(s) <- 0)
    p.slots

(* Hot path of both simulators; [net] always comes from the circuit's own
   tables, so the bounds checks are elided. *)
let apply_stem t net v =
  v land lnot (Array.unsafe_get t.stem_clear net) lor Array.unsafe_get t.stem_set net

let sink_flagged t sink = Array.unsafe_get t.sink_flagged sink

(* Value of [src] as seen by pin [pin] of consumer [sink]. *)
let fetch t ~values ~sink ~pin src =
  let v : int = values.(src) in
  if t.sink_flagged.(sink) then begin
    let slot = t.pin_base.(sink) + pin in
    v land lnot t.branch_clear.(slot) lor t.branch_set.(slot)
  end
  else v
