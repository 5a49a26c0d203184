module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fault = Tvs_fault.Fault
module Fault_sim = Tvs_fault.Fault_sim
module Chain = Tvs_scan.Chain
module Xor_scheme = Tvs_scan.Xor_scheme
module Metrics = Tvs_obs.Metrics

(* Stitching-cycle metrics, all recorded on the submitting domain in [step]:
   deterministic for every jobs value. [cycle.shift_bits_saved] is the
   paper's virtual-compression claim in counter form — chain_len minus the
   fresh bits actually shifted, per cycle. *)
let m_steps = Metrics.counter "cycle.steps"
let m_caught = Metrics.counter "cycle.caught"
let m_became_hidden = Metrics.counter "cycle.became_hidden"
let m_reverted = Metrics.counter "cycle.reverted"
let m_shift_bits = Metrics.counter "cycle.shift_bits"
let m_shift_bits_saved = Metrics.counter "cycle.shift_bits_saved"
let g_peak_hidden = Metrics.gauge "cycle.peak_hidden"
let h_hidden_after = Metrics.histogram "cycle.hidden_after"

type fault_state = Fs_caught of int | Fs_hidden of bool array | Fs_uncaught

type t = {
  circuit : Circuit.t;
  scheme : Xor_scheme.t;
  sim : Fault_sim.t;
  faults : Fault.t array;
  state : fault_state array;  (* written only through [set] *)
  mutable n_caught : int;
  mutable n_hidden : int;
  mutable n_uncaught : int;
  mutable uncaught : int list option;  (* ascending f_u; [None] after [set] moves one in or out *)
  mutable good : bool array;  (* fault-free chain contents, post write-back *)
  mutable cycles : int;
  mutable last_shift : int;
}

let create ?(scheme = Xor_scheme.Nxor) circuit ~faults =
  {
    circuit;
    scheme;
    sim = Fault_sim.create circuit;
    faults;
    state = Array.make (Array.length faults) Fs_uncaught;
    n_caught = 0;
    n_hidden = 0;
    n_uncaught = Array.length faults;
    uncaught = None;
    good = Array.make (Circuit.num_flops circuit) false;
    cycles = 0;
    last_shift = Circuit.num_flops circuit;
  }

let cycle_count t = t.cycles

(* The one writer of [t.state]: keeps the three set sizes exact and drops
   the cached f_u list whenever a fault enters or leaves f_u. *)
let set t i st =
  let bump d = function
    | Fs_caught _ -> t.n_caught <- t.n_caught + d
    | Fs_hidden _ -> t.n_hidden <- t.n_hidden + d
    | Fs_uncaught -> t.n_uncaught <- t.n_uncaught + d
  in
  let old = t.state.(i) in
  bump (-1) old;
  bump 1 st;
  (match (old, st) with
  | Fs_uncaught, Fs_uncaught | (Fs_caught _ | Fs_hidden _), (Fs_caught _ | Fs_hidden _) -> ()
  | Fs_uncaught, (Fs_caught _ | Fs_hidden _) | (Fs_caught _ | Fs_hidden _), Fs_uncaught ->
      t.uncaught <- None);
  t.state.(i) <- st

let num_caught t = t.n_caught
let num_hidden t = t.n_hidden
let num_uncaught t = t.n_uncaught

(* Rebuilt at most once per state change, however often a cycle asks. *)
let uncaught_indices t =
  match t.uncaught with
  | Some l -> l
  | None ->
      let acc = ref [] in
      for i = Array.length t.state - 1 downto 0 do
        match t.state.(i) with Fs_uncaught -> acc := i :: !acc | Fs_caught _ | Fs_hidden _ -> ()
      done;
      t.uncaught <- Some !acc;
      !acc

let good_contents t = t.good

(* --- persisted state (checkpoint/resume) ---------------------------- *)

type persisted = {
  states : fault_state array;
  good : bool array;
  cycles : int;
  last_shift : int;
}

let copy_state = function
  | Fs_hidden contents -> Fs_hidden (Array.copy contents)
  | (Fs_caught _ | Fs_uncaught) as st -> st

let export t =
  {
    states = Array.map copy_state t.state;
    good = Array.copy t.good;
    cycles = t.cycles;
    last_shift = t.last_shift;
  }

let restore t p =
  let ln = Circuit.num_flops t.circuit in
  if Array.length p.states <> Array.length t.faults then
    invalid_arg
      (Printf.sprintf "Cycle.restore: %d fault states for %d faults" (Array.length p.states)
         (Array.length t.faults));
  if Array.length p.good <> ln then
    invalid_arg
      (Printf.sprintf "Cycle.restore: chain contents of %d bits on a %d-cell chain"
         (Array.length p.good) ln);
  Array.iteri
    (fun i st ->
      (match st with
      | Fs_hidden contents when Array.length contents <> ln ->
          invalid_arg
            (Printf.sprintf
               "Cycle.restore: hidden contents of %d bits on a %d-cell chain (fault %d)"
               (Array.length contents) ln i)
      | Fs_hidden _ | Fs_caught _ | Fs_uncaught -> ());
      set t i (copy_state st))
    p.states;
  t.good <- Array.copy p.good;
  t.cycles <- p.cycles;
  t.last_shift <- p.last_shift

let constraints_for (t : t) ~s = Chain.shift_ternary (Array.map Ternary.of_bool t.good) ~s

type report = { caught_now : int list; newly_hidden : int list; reverted : int list }

(* One test cycle: shift [fresh] in (observing the outgoing stream, which
   resolves hidden faults), apply the vector, capture, write back. Every
   fault's new state is committed as soon as it is known; each fault moves
   at most once per cycle.

   Hidden faults split three ways at the shift: stream difference = caught;
   divergent applied vector = tracked further with a private stimulus;
   convergent applied vector = screened together with f_u (the capture under
   the shared vector decides whether the fault re-differentiates). *)
let step t ~pi ~fresh =
  let ln = Circuit.num_flops t.circuit in
  if Array.length fresh > ln then invalid_arg "Cycle: shift exceeds chain length";
  let cycle = t.cycles + 1 in
  let applied_g, _ = Chain.shift t.good ~fresh in
  let good_stream = Xor_scheme.observe t.scheme ~contents:t.good ~fresh in
  let caught = ref [] and reverted = ref [] and newly_hidden = ref [] in
  let catch i =
    caught := i :: !caught;
    set t i (Fs_caught cycle)
  in
  let revert i =
    reverted := i :: !reverted;
    set t i Fs_uncaught
  in
  (* Phase 1: the shift resolves hidden faults against the outgoing stream. *)
  let survivors = ref [] and converged = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | Fs_hidden contents ->
          let stream_f = Xor_scheme.observe t.scheme ~contents ~fresh in
          if stream_f <> good_stream then catch i
          else
            let applied_f, _ = Chain.shift contents ~fresh in
            if applied_f = applied_g then converged := i :: !converged
            else survivors := (i, applied_f) :: !survivors
      | Fs_caught _ | Fs_uncaught -> ())
    t.state;
  let survivors = List.rev !survivors in
  let converged = List.rev !converged in
  (* Phase 2a: faults applying the shared vector — f_u plus the hidden
     faults whose mutated vector re-converged. *)
  let shared = uncaught_indices t @ converged in
  let shared_faults = Array.of_list (List.map (fun i -> t.faults.(i)) shared) in
  let u_res = Fault_sim.run_batch t.sim ~pi ~state:applied_g ~faults:shared_faults in
  let good_capture = u_res.good.capture in
  let contents_g = Xor_scheme.writeback t.scheme ~applied_scan:applied_g ~capture:good_capture in
  List.iteri
    (fun k i ->
      let was_hidden =
        match t.state.(i) with Fs_hidden _ -> true | Fs_caught _ | Fs_uncaught -> false
      in
      match u_res.outcomes.(k) with
      | Fault_sim.Same -> if was_hidden then revert i
      | Fault_sim.Po_detected -> catch i
      | Fault_sim.Capture_differs cap_f ->
          let contents_f = Xor_scheme.writeback t.scheme ~applied_scan:applied_g ~capture:cap_f in
          if contents_f = contents_g then begin
            (* Differentiation erased by the write-back itself. *)
            if was_hidden then revert i
          end
          else begin
            if not was_hidden then newly_hidden := i :: !newly_hidden;
            set t i (Fs_hidden contents_f)
          end)
    shared;
  (* Phase 2b: hidden survivors apply their own mutated vectors. *)
  if survivors <> [] then begin
    let h_faults = Array.of_list (List.map (fun (i, _) -> t.faults.(i)) survivors) in
    let h_states = Array.of_list (List.map snd survivors) in
    let h_res =
      Fault_sim.run_per_state t.sim ~pi ~good_state:applied_g ~faults:h_faults ~states:h_states
    in
    List.iteri
      (fun k (i, applied_f) ->
        let resolve contents_f =
          if contents_f = contents_g then revert i else set t i (Fs_hidden contents_f)
        in
        match h_res.outcomes.(k) with
        | Fault_sim.Po_detected -> catch i
        | Fault_sim.Same ->
            (* Capture equals the fault-free one, but under VXOR the
               write-back still mixes in the divergent applied vector. *)
            resolve (Xor_scheme.writeback t.scheme ~applied_scan:applied_f ~capture:good_capture)
        | Fault_sim.Capture_differs cap_f ->
            resolve (Xor_scheme.writeback t.scheme ~applied_scan:applied_f ~capture:cap_f))
      survivors
  end;
  let report =
    {
      caught_now = List.rev !caught;
      newly_hidden = List.rev !newly_hidden;
      reverted = List.rev !reverted;
    }
  in
  (* Caught faults leave the uncaught/hidden pools for good: no future
     [step] simulates them again. *)
  Fault_sim.note_dropped (List.length report.caught_now);
  t.good <- contents_g;
  t.cycles <- cycle;
  t.last_shift <- Array.length fresh;
  Metrics.incr m_steps;
  Metrics.add m_caught (List.length report.caught_now);
  Metrics.add m_became_hidden (List.length report.newly_hidden);
  Metrics.add m_reverted (List.length report.reverted);
  Metrics.add m_shift_bits (Array.length fresh);
  Metrics.add m_shift_bits_saved (ln - Array.length fresh);
  let hidden = num_hidden t in
  Metrics.observe_max g_peak_hidden hidden;
  Metrics.observe h_hidden_after hidden;
  report

let flush t ~full =
  let ln = Circuit.num_flops t.circuit in
  let s = if full then ln else min t.last_shift ln in
  let fresh = Array.make s false in
  let good_stream = Xor_scheme.observe t.scheme ~contents:t.good ~fresh in
  let cycle = t.cycles + 1 in
  let caught = ref [] and reverted = ref [] in
  Array.iteri
    (fun i st ->
      match st with
      | Fs_hidden contents ->
          let stream_f = Xor_scheme.observe t.scheme ~contents ~fresh in
          if stream_f <> good_stream then begin
            caught := i :: !caught;
            set t i (Fs_caught cycle)
          end
          else begin
            reverted := i :: !reverted;
            set t i Fs_uncaught
          end
      | Fs_caught _ | Fs_uncaught -> ())
    t.state;
  { caught_now = List.rev !caught; newly_hidden = []; reverted = List.rev !reverted }
