module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Rng = Tvs_util.Rng

(* Gate-kind distribution loosely following ISCAS89 netlists: the AND/OR
   families dominate, inverters are common, parity gates are rare. *)
let pick_kind rng =
  match Rng.int rng 100 with
  | n when n < 22 -> Gate.And
  | n when n < 44 -> Gate.Nand
  | n when n < 60 -> Gate.Or
  | n when n < 74 -> Gate.Nor
  | n when n < 88 -> Gate.Not
  | n when n < 93 -> Gate.Buf
  | n when n < 97 -> Gate.Xor
  | _ -> Gate.Xnor

let pick_arity rng kind =
  match kind with
  | Gate.Not | Gate.Buf -> 1
  | Gate.Xor | Gate.Xnor -> 2
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
      match Rng.int rng 10 with n when n < 6 -> 2 | n when n < 9 -> 3 | _ -> 4)

(* Pick a fanin net according to the profile style. [sources] are PI/FF
   nets; the first [n_gates] slots of [gates] the gate nets created so far
   (newest last). *)
let pick_fanin rng style sources gates n_gates =
  let from_sources () = Rng.pick rng sources in
  let recent_window = max 1 (n_gates / 4) in
  let from_recent () = gates.(n_gates - 1 - Rng.int rng recent_window) in
  let from_any_gate () = gates.(Rng.int rng n_gates) in
  if n_gates = 0 then from_sources ()
  else
    match style with
    | Profiles.Shallow -> if Rng.int rng 10 < 8 then from_sources () else from_any_gate ()
    | Profiles.Balanced ->
        if Rng.int rng 10 < 4 then from_sources ()
        else if Rng.int rng 10 < 7 then from_any_gate ()
        else from_recent ()
    | Profiles.Deep ->
        if Rng.int rng 10 < 2 then from_sources ()
        else if Rng.int rng 10 < 7 then from_recent ()
        else from_any_gate ()

let distinct_fanins rng style sources gates n_gates arity =
  let chosen = ref [] in
  let attempts = ref 0 in
  while List.length !chosen < arity && !attempts < arity * 8 do
    incr attempts;
    let net = pick_fanin rng style sources gates n_gates in
    if not (List.mem net !chosen) then chosen := net :: !chosen
  done;
  (* Fall back to whatever we have; a 1-input AND is rejected by the
     builder, so pad from sources if the pool was too small. *)
  let rec pad () =
    if List.length !chosen < min arity 2 then begin
      let net = Rng.pick rng sources in
      if not (List.mem net !chosen) || Array.length sources = 1 then chosen := net :: !chosen;
      pad ()
    end
  in
  pad ();
  List.rev !chosen

let generate (profile : Profiles.t) =
  let rng = Rng.of_string ("synth:" ^ profile.name) in
  let b = Circuit.Builder.create profile.name in
  let pis = Array.init profile.npi (fun i -> Circuit.Builder.input b (Printf.sprintf "PI%d" i)) in
  let ffs =
    Array.init profile.nff (fun i -> Circuit.Builder.flop_forward b (Printf.sprintf "FF%d" i))
  in
  let sources = Array.append pis ffs in
  let consumed = Hashtbl.create (profile.ngates * 2) in
  let consume nets = List.iter (fun n -> Hashtbl.replace consumed n ()) nets in
  let gate_nets = Array.make profile.ngates (-1) in
  for g = 0 to profile.ngates - 1 do
    let kind = pick_kind rng in
    let arity = pick_arity rng kind in
    let fanins = distinct_fanins rng profile.style sources gate_nets g arity in
    (* Guarantee every primary input is consumed: the first [npi] multi-input
       gates each adopt one PI. *)
    let fanins =
      if g < profile.npi && arity >= 2 && not (List.mem pis.(g) fanins) then
        pis.(g) :: List.tl fanins
      else fanins
    in
    let kind = if List.length fanins = 1 then (if Rng.bool rng then Gate.Not else Gate.Buf) else kind in
    let net = Circuit.Builder.gate b ~name:(Printf.sprintf "G%d" g) kind fanins in
    consume fanins;
    gate_nets.(g) <- net
  done;
  (* Sinks prefer dangling nets so nothing is left undriven/unobserved. *)
  let dangling () =
    Array.to_list gate_nets |> List.filter (fun n -> not (Hashtbl.mem consumed n))
  in
  let dangling_pool = ref (Array.of_list (dangling ())) in
  Rng.shuffle rng !dangling_pool;
  let pool_pos = ref 0 in
  let next_sink () =
    if !pool_pos < Array.length !dangling_pool then begin
      let n = (!dangling_pool).(!pool_pos) in
      incr pool_pos;
      n
    end
    else gate_nets.(Rng.int rng (Array.length gate_nets))
  in
  Array.iter
    (fun q ->
      let d = next_sink () in
      Circuit.Builder.connect_flop b q d;
      Hashtbl.replace consumed d ())
    ffs;
  (* Primary outputs: distinct where possible, one slot reserved for the
     parity collapse of any remaining dangling nets (including unused PIs,
     which can occur when gates are scarce). *)
  let leftovers =
    dangling () @ (Array.to_list pis |> List.filter (fun n -> not (Hashtbl.mem consumed n)))
  in
  let parity_net =
    (* Balanced XOR reduction so the collapse tree adds only log-depth. *)
    let counter = ref 0 in
    let rec reduce = function
      | [] -> None
      | [ single ] -> Some single
      | nets ->
          let rec pair = function
            | x :: y :: rest ->
                let g =
                  Circuit.Builder.gate b ~name:(Printf.sprintf "COLLAPSE%d" !counter) Gate.Xor [ x; y ]
                in
                incr counter;
                Hashtbl.replace consumed x ();
                Hashtbl.replace consumed y ();
                g :: pair rest
            | ([ _ ] | []) as tail -> tail
          in
          reduce (pair nets)
    in
    reduce leftovers
  in
  let chosen_po = Hashtbl.create profile.npo in
  let n_po = ref 0 in
  (match parity_net with
  | Some net when profile.npo > 0 ->
      Circuit.Builder.mark_output b net;
      Hashtbl.replace chosen_po net ();
      Hashtbl.replace consumed net ();
      incr n_po
  | Some _ | None -> ());
  while !n_po < profile.npo do
    let cand = next_sink () in
    if not (Hashtbl.mem chosen_po cand) || !pool_pos >= Array.length !dangling_pool then begin
      if not (Hashtbl.mem chosen_po cand) then begin
        Circuit.Builder.mark_output b cand;
        Hashtbl.replace chosen_po cand ();
        Hashtbl.replace consumed cand ();
        incr n_po
      end
      else begin
        (* Exhausted distinct candidates: reuse is not allowed, so walk the
           gate list for a fresh one. *)
        let fresh = Array.to_list gate_nets |> List.find_opt (fun n -> not (Hashtbl.mem chosen_po n)) in
        match fresh with
        | Some n ->
            Circuit.Builder.mark_output b n;
            Hashtbl.replace chosen_po n ();
            Hashtbl.replace consumed n ();
            incr n_po
        | None ->
            (* Fewer gates than requested POs: give up on distinctness. *)
            Circuit.Builder.mark_output b cand;
            incr n_po
      end
    end
  done;
  Circuit.Builder.finish b

let generate_named name = generate (Profiles.find name)
