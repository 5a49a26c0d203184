module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fault = Tvs_fault.Fault
module Soa = Tvs_sim.Soa
module Metrics = Tvs_obs.Metrics
module Clock = Tvs_util.Clock
module K = Fivev_kernel

type result = Detected of Cube.t | Untestable | Aborted

type config = { backtrack_limit : int; guided : bool }

let default_config = { backtrack_limit = 100; guided = true }

let m_calls = Metrics.counter "atpg.calls"
let m_detected = Metrics.counter "atpg.detected"
let m_untestable = Metrics.counter "atpg.untestable"
let m_aborted = Metrics.counter "atpg.aborted"
let m_decisions = Metrics.counter "atpg.decisions"
let m_backtracks = Metrics.counter "atpg.backtracks"
let m_implications = Metrics.counter "atpg.implications"
let h_detected_us = Metrics.histogram ~stable:false "atpg.detected_us"
let h_untestable_us = Metrics.histogram ~stable:false "atpg.untestable_us"
let h_aborted_us = Metrics.histogram ~stable:false "atpg.aborted_us"

(* Values are {!Fivev_kernel} codes, one byte per net or position; every
   index is a net or position of the context's circuit. *)
let get values net = Char.code (Bytes.unsafe_get values net)
let set values net v = Bytes.unsafe_set values net (Char.unsafe_chr v)
let is_error v = v = K.d || v = K.dbar

type ctx = {
  soa : Soa.t;
  guide : Scoap.t;
  npi : int;
  pos_net : int array;  (* assignable positions: primary inputs, then scan cells *)
  pos_of_net : int array;  (* net -> index into [pos_net], or -1 *)
  pos_val : Bytes.t;  (* per position: [K.zero], [K.one] or [K.x] *)
  values : Bytes.t;  (* per net, kept current by event-driven implication *)
  (* Event queue: one flat bucket per logic level, sized by the level's
     gate count and processed ascending (up to [top], the highest level
     queued), so each net is evaluated at most once per propagation. *)
  bucket_base : int array;
  bucket_len : int array;
  bucket : int array;
  queued : bool array;
  mutable top : int;
  (* Undo trail of [net lsl 3 lor old_value] entries; each decision records
     the trail height its implications start at. *)
  mutable trail : int array;
  mutable trail_len : int;
  dec_pos : int array;
  dec_value : bool array;
  dec_flipped : bool array;
  dec_height : int array;
  mutable ndec : int;
  (* The fault's transitive fanout: its gates in DFS discovery order and its
     observation points. Generation-stamped to avoid O(nets) clears. *)
  tfo_stamp : int array;
  mutable stamp : int;
  tfo : int array;
  mutable ntfo : int;
  obs_po : int array;
  mutable npo : int;
  obs_flop : int array;
  mutable nobs_flop : int;
  frontier : int array;  (* the D-frontier gates of the latest scan *)
  seen : int array;  (* X-path visit marks, stamped like [tfo_stamp] *)
  mutable seen_stamp : int;
  (* Fault-free implied values for the last-seen constraint contents, so
     that repeated calls under one cycle's constraints (the stitching
     engine's pattern) pay a blit instead of a full re-evaluation. The key
     is a private copy of the constraints' codes: a caller may mutate and
     reuse its array. *)
  mutable memo_valid : bool;
  memo_key : Bytes.t;
  memo_values : Bytes.t;
  mutable implications : int;  (* nets evaluated by [propagate], this call *)
}

let create c =
  let guide = Scoap.compute c in
  let soa = Soa.create c in
  let n = Circuit.num_nets c in
  let npi = Circuit.num_inputs c and nflops = Circuit.num_flops c in
  let pos_net = Array.append (Circuit.inputs c) (Circuit.flops c) in
  let pos_of_net = Array.make n (-1) in
  Array.iteri (fun pos net -> pos_of_net.(net) <- pos) pos_net;
  let bucket_base = Array.make (soa.depth + 2) 0 in
  for l = 0 to soa.depth do
    bucket_base.(l + 1) <- bucket_base.(l) + soa.level_pop.(l)
  done;
  let npos = Array.length pos_net in
  {
    soa;
    guide;
    npi;
    pos_net;
    pos_of_net;
    pos_val = Bytes.make npos (Char.chr K.x);
    values = Bytes.make n (Char.chr K.x);
    bucket_base;
    bucket_len = Array.make (soa.depth + 1) 0;
    bucket = Array.make bucket_base.(soa.depth + 1) 0;
    queued = Array.make n false;
    top = 0;
    trail = Array.make (max 16 n) 0;
    trail_len = 0;
    dec_pos = Array.make npos 0;
    dec_value = Array.make npos false;
    dec_flipped = Array.make npos false;
    dec_height = Array.make npos 0;
    ndec = 0;
    tfo_stamp = Array.make n (-1);
    stamp = 0;
    tfo = Array.make n 0;
    ntfo = 0;
    obs_po = Array.make n 0;
    npo = 0;
    obs_flop = Array.make nflops 0;
    nobs_flop = 0;
    frontier = Array.make n 0;
    seen = Array.make n (-1);
    seen_stamp = 0;
    memo_valid = false;
    memo_key = Bytes.make nflops (Char.chr K.x);
    memo_values = Bytes.make n (Char.chr K.x);
    implications = 0;
  }

let circuit ctx = Soa.circuit ctx.soa
let scoap ctx = ctx.guide

(* The fault of one [generate] call, as the kernel reads it. *)
type site = {
  stem : int;
  stuck : bool;
  stem_site : int;  (* [stem] for a stem fault, else -1 *)
  branch_sink : int;  (* the consumer of a faulty branch, else -1 *)
  branch_pin : int;
}

let site_of (fault : Fault.t) =
  match fault.branch with
  | None ->
      { stem = fault.stem; stuck = fault.stuck; stem_site = fault.stem; branch_sink = -1; branch_pin = -1 }
  | Some (sink, pin) ->
      { stem = fault.stem; stuck = fault.stuck; stem_site = -1; branch_sink = sink; branch_pin = pin }

(* The stem value as the faulty branch's consumer sees it. *)
let branch_value ctx s = K.site s.stuck (get ctx.values s.stem)

(* Gate or constant [net], fault-aware: the consumer of a faulty branch
   reads the site value on its pin, and a stem fault's net carries the site
   value itself. *)
let[@inline] eval_gate ctx s net =
  let v =
    if net = s.branch_sink then
      K.eval_pin ctx.soa ctx.values net ~pin:s.branch_pin (branch_value ctx s)
    else K.eval ctx.soa ctx.values net
  in
  if net = s.stem_site then K.site s.stuck v else v

(* Any net: positions read their assignment. *)
let eval_net ctx s net =
  let pos = ctx.pos_of_net.(net) in
  if pos < 0 then eval_gate ctx s net
  else if net = s.stem_site then K.site s.stuck (get ctx.pos_val pos)
  else get ctx.pos_val pos

(* Fault-free full evaluation of the constraint-only assignment. The fault
   is layered on afterwards by propagation, so this result can be memoized
   across faults sharing one constraint vector. *)
let eval_fault_free ctx =
  Array.iteri (fun pos net -> set ctx.values net (get ctx.pos_val pos)) ctx.pos_net;
  Array.iter (fun net -> set ctx.values net (K.eval ctx.soa ctx.values net)) ctx.soa.order

let[@inline] enqueue ctx net =
  if not (Array.unsafe_get ctx.queued net) then begin
    Array.unsafe_set ctx.queued net true;
    let l = Array.unsafe_get ctx.soa.level_of net in
    let len = ctx.bucket_len.(l) in
    ctx.bucket.(ctx.bucket_base.(l) + len) <- net;
    ctx.bucket_len.(l) <- len + 1;
    if l > ctx.top then ctx.top <- l
  end

(* Give [net] the value [v]: on a change, log the old value for undo and
   schedule the gates it feeds. *)
let[@inline] update ctx net v =
  let old_v = get ctx.values net in
  if v <> old_v then begin
    if ctx.trail_len = Array.length ctx.trail then begin
      let bigger = Array.make (2 * ctx.trail_len) 0 in
      Array.blit ctx.trail 0 bigger 0 ctx.trail_len;
      ctx.trail <- bigger
    end;
    Array.unsafe_set ctx.trail ctx.trail_len ((net lsl 3) lor old_v);
    ctx.trail_len <- ctx.trail_len + 1;
    set ctx.values net v;
    let soa = ctx.soa in
    for e = Array.unsafe_get soa.sink_base net to Array.unsafe_get soa.sink_base (net + 1) - 1 do
      enqueue ctx (Array.unsafe_get soa.sink e)
    done
  end

(* Event-driven implication from one changed source net. Every queued net
   is a gate above the source's level, and sinks sit above their fanins, so
   a level's bucket is complete when reached. The helpers above are inlined
   into this loop: it runs once per implication. *)
let propagate ctx s source =
  let level0 = ctx.soa.level_of.(source) in
  ctx.top <- level0;
  update ctx source (eval_net ctx s source);
  let evaluated = ref 1 and level = ref (level0 + 1) in
  (* [ctx.top] grows as the loop queues sinks. *)
  while !level <= ctx.top do
    let base = ctx.bucket_base.(!level) and len = ctx.bucket_len.(!level) in
    for k = base to base + len - 1 do
      let net = Array.unsafe_get ctx.bucket k in
      Array.unsafe_set ctx.queued net false;
      update ctx net (eval_gate ctx s net)
    done;
    evaluated := !evaluated + len;
    ctx.bucket_len.(!level) <- 0;
    incr level
  done;
  ctx.implications <- ctx.implications + !evaluated

let undo ctx height =
  for k = ctx.trail_len - 1 downto height do
    let entry = ctx.trail.(k) in
    set ctx.values (entry lsr 3) (entry land 7)
  done;
  ctx.trail_len <- height

(* Mark the fault's transitive fanout cone; collect its gates in DFS
   discovery order (sinks in [Soa.sink] order, which is [Circuit.fanout]
   order) and its observation points. *)
let mark_tfo ctx (fault : Fault.t) =
  let soa = ctx.soa in
  ctx.stamp <- ctx.stamp + 1;
  ctx.ntfo <- 0;
  ctx.npo <- 0;
  ctx.nobs_flop <- 0;
  let stamp = ctx.stamp in
  let add_flop fnet =
    ctx.obs_flop.(ctx.nobs_flop) <- fnet;
    ctx.nobs_flop <- ctx.nobs_flop + 1
  in
  let rec visit net =
    if ctx.tfo_stamp.(net) <> stamp then begin
      ctx.tfo_stamp.(net) <- stamp;
      if soa.is_gate.(net) then begin
        ctx.tfo.(ctx.ntfo) <- net;
        ctx.ntfo <- ctx.ntfo + 1
      end;
      if soa.is_po.(net) then begin
        ctx.obs_po.(ctx.npo) <- net;
        ctx.npo <- ctx.npo + 1
      end;
      for e = soa.dflop_base.(net) to soa.dflop_base.(net + 1) - 1 do
        add_flop soa.dflop.(e)
      done;
      for e = soa.sink_base.(net) to soa.sink_base.(net + 1) - 1 do
        visit soa.sink.(e)
      done
    end
  in
  match fault.branch with
  | None -> visit fault.stem
  | Some (sink, _pin) ->
      if soa.is_flop.(sink) then add_flop sink else if soa.is_gate.(sink) then visit sink

let error_observed ctx s =
  let values = ctx.values in
  let rec po k = k < ctx.npo && (is_error (get values ctx.obs_po.(k)) || po (k + 1)) in
  let captured fnet =
    if fnet = s.branch_sink then branch_value ctx s
    else get values ctx.soa.flop_d.(ctx.pos_of_net.(fnet) - ctx.npi)
  in
  let rec flop k = k < ctx.nobs_flop && (is_error (captured ctx.obs_flop.(k)) || flop (k + 1)) in
  po 0 || flop 0

let site_value ctx s = if s.stem_site >= 0 then get ctx.values s.stem else branch_value ctx s

(* Does a (fault-aware) input of gate [g] carry an error? *)
let has_error_input ctx s g =
  let soa = ctx.soa in
  let base = soa.fanin_base.(g) and stop = soa.fanin_base.(g + 1) in
  let rec scan p =
    p < stop
    && (is_error
          (if g = s.branch_sink && p - base = s.branch_pin then branch_value ctx s
           else get ctx.values soa.fanin.(p))
       || scan (p + 1))
  in
  scan base

(* Can an error at one of the first [n] frontier gates still reach an
   observation point through X-valued nets? *)
let x_path_exists ctx n =
  let soa = ctx.soa and values = ctx.values in
  ctx.seen_stamp <- ctx.seen_stamp + 1;
  let stamp = ctx.seen_stamp in
  let rec reachable net =
    ctx.seen.(net) <> stamp
    && begin
         ctx.seen.(net) <- stamp;
         get values net = K.x
         && (soa.is_po.(net)
            || soa.dflop_base.(net + 1) > soa.dflop_base.(net)
            || sinks soa.sink_base.(net) soa.sink_base.(net + 1))
       end
  and sinks e stop = e < stop && (reachable soa.sink.(e) || sinks (e + 1) stop) in
  let rec any k = k < n && (reachable ctx.frontier.(k) || any (k + 1)) in
  any 0

(* The D-frontier scan fused with the propagation objective's gate pick:
   over the cone's gates in reverse discovery order, collect those whose
   output is X while an input carries an error, keeping the first of least
   stem observability. That gate, or -1 when the frontier is empty or no
   X path leads from it to an observation point. *)
let frontier_gate ctx s =
  let best = ref (-1) and best_cost = ref 0 and n = ref 0 in
  for k = ctx.ntfo - 1 downto 0 do
    let g = ctx.tfo.(k) in
    if get ctx.values g = K.x && has_error_input ctx s g then begin
      ctx.frontier.(!n) <- g;
      incr n;
      let cost = Scoap.co_stem ctx.guide g in
      if !best < 0 || cost < !best_cost then begin
        best := g;
        best_cost := cost
      end
    end
  done;
  if !best >= 0 && x_path_exists ctx !n then !best else -1

let first_x_fanin ctx g =
  let soa = ctx.soa in
  let stop = soa.fanin_base.(g + 1) in
  let rec go p =
    if p >= stop then -1
    else if get ctx.values soa.fanin.(p) = K.x then soa.fanin.(p)
    else go (p + 1)
  in
  go soa.fanin_base.(g)

(* Backtrace an objective (net, value) to an unassigned input position:
   [2 * position + value], or -1. Heuristic only; soundness comes from
   implication plus backtracking. *)
let backtrace ctx ~guided net0 v0 =
  let soa = ctx.soa and values = ctx.values and guide = ctx.guide in
  (* The X fanin of [net] to pursue for value [v]: unguided, the first;
     guided, the first of least (with [hardest], greatest) cost. *)
  let pick ~hardest net v =
    let best = ref (-1) and best_cost = ref 0 in
    for p = soa.fanin_base.(net) to soa.fanin_base.(net + 1) - 1 do
      let i = soa.fanin.(p) in
      if get values i = K.x then
        if not guided then (if !best < 0 then best := i)
        else begin
          let cost = Scoap.cc guide i v in
          if !best < 0 || (if hardest then cost > !best_cost else cost < !best_cost) then begin
            best := i;
            best_cost := cost
          end
        end
    done;
    !best
  in
  let rec walk net v fuel =
    if fuel = 0 then -1
    else
      let pos = ctx.pos_of_net.(net) in
      if pos >= 0 then if get ctx.pos_val pos = K.x then (2 * pos) + Bool.to_int v else -1
      else if not soa.is_gate.(net) then -1 (* constant *)
      else
        let u = v <> (soa.inv.(net) <> 0) in
        let op = soa.op.(net) in
        if op = Soa.op_copy then walk soa.fanin.(soa.fanin_base.(net)) u (fuel - 1)
        else begin
          (* XOR-fold: an X input whose target makes the total parity
             match, counting specified inputs and treating other X inputs
             as 0 ([u] already accounts for XNOR inversion). AND-fold
             (controlling 0) or OR-fold (controlling 1): the easiest input
             for the controlling value, else the hardest. *)
          let target = ref u and hardest = ref false in
          if op = Soa.op_xor then
            for p = soa.fanin_base.(net) to soa.fanin_base.(net + 1) - 1 do
              let g = get values soa.fanin.(p) in
              if g = K.one || g = K.d then target := not !target
            done
          else hardest := u <> (op = Soa.op_or);
          let i = pick ~hardest:!hardest net !target in
          if i < 0 then -1 else walk i !target (fuel - 1)
        end
  in
  walk net0 v0 (Array.length ctx.pos_of_net + 1)

let extract_cube ctx : Cube.t =
  let ternary pos = K.to_ternary (get ctx.pos_val pos) in
  {
    pi = Array.init ctx.npi ternary;
    scan = Array.init (Array.length ctx.pos_net - ctx.npi) (fun i -> ternary (ctx.npi + i));
  }

(* Restore the fault-free values under the current constraints from the
   memo, or compute and remember them. *)
let load_fault_free ctx =
  let nflops = Bytes.length ctx.memo_key in
  let rec same i = i >= nflops || (get ctx.memo_key i = get ctx.pos_val (ctx.npi + i) && same (i + 1)) in
  let n = Bytes.length ctx.values in
  if ctx.memo_valid && same 0 then Bytes.blit ctx.memo_values 0 ctx.values 0 n
  else begin
    eval_fault_free ctx;
    Bytes.blit ctx.values 0 ctx.memo_values 0 n;
    Bytes.blit ctx.pos_val ctx.npi ctx.memo_key 0 nflops;
    ctx.memo_valid <- true
  end

let record result ~decisions ~backtracks ~implications ~t0 =
  Metrics.incr m_calls;
  Metrics.add m_decisions decisions;
  Metrics.add m_backtracks backtracks;
  Metrics.add m_implications implications;
  let outcome, hist =
    match result with
    | Detected _ -> (m_detected, h_detected_us)
    | Untestable -> (m_untestable, h_untestable_us)
    | Aborted -> (m_aborted, h_aborted_us)
  in
  Metrics.incr outcome;
  Metrics.observe hist (int_of_float ((Clock.now () -. t0) *. 1e6))

let generate ?(config = default_config) ?constraints ctx (fault : Fault.t) =
  let t0 = Clock.now () in
  let nflops = Bytes.length ctx.memo_key in
  Bytes.fill ctx.pos_val 0 ctx.npi (Char.chr K.x);
  (match constraints with
  | Some arr ->
      if Array.length arr <> nflops then invalid_arg "Podem.generate: constraints length mismatch";
      Array.iteri (fun i v -> set ctx.pos_val (ctx.npi + i) (K.of_ternary v)) arr
  | None -> Bytes.fill ctx.pos_val ctx.npi nflops (Char.chr K.x));
  let s = site_of fault in
  mark_tfo ctx fault;
  load_fault_free ctx;
  ctx.implications <- 0;
  (* Layer the fault transform on the fault-free base; no decision ever
     undoes it, so its trail entries are dropped. *)
  (match fault.branch with
  | None -> propagate ctx s fault.stem
  | Some (sink, _pin) -> if ctx.soa.is_gate.(sink) then propagate ctx s sink);
  ctx.trail_len <- 0;
  ctx.ndec <- 0;
  let decisions = ref 0 and backtracks = ref 0 in
  let assign pos v =
    incr decisions;
    set ctx.pos_val pos (if v then K.one else K.zero);
    propagate ctx s ctx.pos_net.(pos)
  in
  let decide pos v =
    let k = ctx.ndec in
    ctx.dec_pos.(k) <- pos;
    ctx.dec_value.(k) <- v;
    ctx.dec_flipped.(k) <- false;
    ctx.dec_height.(k) <- ctx.trail_len;
    ctx.ndec <- k + 1;
    assign pos v
  in
  (* Pop fully explored decisions, then flip the most recent unexplored one.
     [false] when the whole space is exhausted. *)
  let rec flip_last () =
    ctx.ndec > 0
    &&
    let k = ctx.ndec - 1 in
    set ctx.pos_val ctx.dec_pos.(k) K.x;
    undo ctx ctx.dec_height.(k);
    if ctx.dec_flipped.(k) then begin
      ctx.ndec <- k;
      flip_last ()
    end
    else begin
      ctx.dec_value.(k) <- not ctx.dec_value.(k);
      ctx.dec_flipped.(k) <- true;
      assign ctx.dec_pos.(k) ctx.dec_value.(k);
      true
    end
  in
  (* The next decision, [2 * position + value], or -1. *)
  let next_decision () =
    let site = site_value ctx s in
    if is_error site then begin
      let g = frontier_gate ctx s in
      let i = if g < 0 then -1 else first_x_fanin ctx g in
      (* Target the gate's non-controlling value (1 for the AND-fold). *)
      if i < 0 then -1 else backtrace ctx ~guided:config.guided i (ctx.soa.op.(g) = Soa.op_and)
    end
    else if site = K.x then backtrace ctx ~guided:config.guided fault.stem (not fault.stuck)
    else -1 (* activation impossible under current assignments *)
  in
  let rec search () =
    if error_observed ctx s then Detected (extract_cube ctx)
    else
      let next = next_decision () in
      if next >= 0 then begin
        decide (next lsr 1) (next land 1 = 1);
        search ()
      end
      else if !backtracks >= config.backtrack_limit then Aborted
      else begin
        incr backtracks;
        if flip_last () then search () else Untestable
      end
  in
  let result = search () in
  record result ~decisions:!decisions ~backtracks:!backtracks ~implications:ctx.implications ~t0;
  result
