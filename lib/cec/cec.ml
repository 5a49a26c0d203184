module Circuit = Tvs_netlist.Circuit
module Sat = Tvs_util.Sat
module Pool = Tvs_util.Pool
module Rng = Tvs_util.Rng
module Wire = Tvs_util.Wire
module Lanes = Tvs_sim.Lanes
module Parallel = Tvs_sim.Parallel
module Cache = Tvs_store.Cache
module Store_digest = Tvs_store.Digest
module Metrics = Tvs_obs.Metrics
module Json = Tvs_obs.Json

exception Mismatch of string

let err fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

type tie = { name : string; value : bool }

type options = { vectors : int; budget : int; ties : tie list }

let default_options = { vectors = 8; budget = 200_000; ties = [] }

type point = Po of string | Capture of string

let point_kind = function Po _ -> "po" | Capture _ -> "ff"
let point_target = function Po s -> s | Capture s -> s
let point_label p = point_kind p ^ " " ^ point_target p

type counterexample = {
  point : point;
  left_pi : bool array;
  left_state : bool array;
  right_pi : bool array;
  right_state : bool array;
  left_value : bool;
  right_value : bool;
}

type verdict = Equivalent | Inequivalent of counterexample | Unknown of point list

type result = {
  left : string;
  right : string;
  verdict : verdict;
  matched_pis : int;
  matched_flops : int;
  matched_pos : int;
  ties : tie list;
  free_inputs : string list;
  extra_outputs : string list;
  extra_flops : string list;
  classes : int;
  proved : int;
  sat_calls : int;
  decisions : int;
  propagations : int;
  cached : bool;
}

let points r = r.matched_pos + r.matched_flops

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)

let m_checks = Metrics.counter "cec.checks"
let m_equivalent = Metrics.counter "cec.verdict.equivalent"
let m_inequivalent = Metrics.counter "cec.verdict.inequivalent"
let m_unknown = Metrics.counter "cec.verdict.unknown"
let m_points = Metrics.counter "cec.points"
let m_classes = Metrics.counter "cec.sweep.classes"
let m_proved = Metrics.counter "cec.sweep.proved"
let m_sat_calls = Metrics.counter "cec.sat.calls"
let m_sat_decisions = Metrics.counter "cec.sat.decisions"
let m_sat_propagations = Metrics.counter "cec.sat.propagations"

(* Cache traffic legitimately varies across runs, like store.cache.*. *)
let m_cached = Metrics.counter ~stable:false "cec.cached"

(* ------------------------------------------------------------------ *)
(* Interface matching                                                 *)

type matching = {
  source_map : int array;  (* right net -> matched left source net, -1 *)
  po_pairs : (int * int * int) array;  (* (left po net, right po net, right po index) *)
  po_names : string array;
  ff_pairs : (int * int * int) array;  (* (left D net, right D net, right flop index) *)
  ff_names : string array;
  tie_left : (int * bool) list;
  tie_right : (int * bool) list;
  applied_ties : tie list;
  free_inputs : string list;
  extra_outputs : string list;
  extra_flops : string list;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Pin conventions of the repo's own transforms: scan insertion adds the
   scan_en/scan_in mode pins and the scan_out_tap observation output; TPI
   adds tpi_ctl_* control inputs (transparent at 0), tpi_po_* taps and
   tpi_obs_* observe cells. Recognized extras keep inclusion checking
   honest without a hand-written name map for every gate in CI. *)
let convention_tie name = name = "scan_en" || starts_with ~prefix:"tpi_ctl_" name

let build_matching ~(options : options) left right =
  let lname = Circuit.name left and rname = Circuit.name right in
  let source_map = Array.make (Circuit.num_nets right) (-1) in
  (* Primary inputs, by name. *)
  Array.iter
    (fun l ->
      let nm = Circuit.net_name left l in
      match Circuit.find_net_opt right nm with
      | Some r when Circuit.driver right r = Circuit.Primary_input -> source_map.(r) <- l
      | Some _ -> err "input %s of %s is not a primary input in %s" nm lname rname
      | None -> err "primary input %s of %s is missing from %s" nm lname rname)
    (Circuit.inputs left);
  (* Flip-flops, by name: Q nets are pseudo-PIs, D nets pseudo-POs. *)
  let ff_pairs = ref [] and ff_names = ref [] in
  Array.iter
    (fun lq ->
      let nm = Circuit.net_name left lq in
      match Circuit.find_net_opt right nm with
      | Some rq -> (
          match (Circuit.driver left lq, Circuit.driver right rq) with
          | Circuit.Flip_flop ld, Circuit.Flip_flop rd ->
              source_map.(rq) <- lq;
              let rpos = ref (-1) in
              Array.iteri (fun i q -> if q = rq then rpos := i) (Circuit.flops right);
              ff_pairs := (ld, rd, !rpos) :: !ff_pairs;
              ff_names := nm :: !ff_names
          | _ -> err "flip-flop %s of %s is not a flip-flop in %s" nm lname rname)
      | None -> err "flip-flop %s of %s is missing from %s" nm lname rname)
    (Circuit.flops left);
  (* Primary outputs, by name (inclusion: extra right outputs allowed). *)
  let po_pairs = ref [] and po_names = ref [] in
  Array.iter
    (fun lo ->
      let nm = Circuit.net_name left lo in
      match Circuit.find_net_opt right nm with
      | Some ro when Circuit.is_output right ro ->
          let rpos = ref (-1) in
          Array.iteri (fun i o -> if o = ro then rpos := i) (Circuit.outputs right);
          po_pairs := (lo, ro, !rpos) :: !po_pairs;
          po_names := nm :: !po_names
      | Some _ -> err "output %s of %s is not an output in %s" nm lname rname
      | None -> err "primary output %s of %s is missing from %s" nm lname rname)
    (Circuit.outputs left);
  if !po_pairs = [] && !ff_pairs = [] then
    err "%s and %s share no observation point (no outputs, no flip-flops)" lname rname;
  (* User ties, by name, on whichever side resolves (matched sources tie the
     shared variable through the left net). *)
  let tie_left = ref [] and tie_right = ref [] and applied = ref [] in
  let user_tied = Hashtbl.create 8 in
  List.iter
    (fun t ->
      if Hashtbl.mem user_tied t.name then err "tie %s given twice" t.name;
      Hashtbl.add user_tied t.name ();
      let source c n =
        match Circuit.driver c n with
        | Circuit.Primary_input | Circuit.Flip_flop _ -> true
        | _ -> false
      in
      match Circuit.find_net_opt right t.name with
      | Some r when source right r ->
          if source_map.(r) >= 0 then tie_left := (source_map.(r), t.value) :: !tie_left
          else tie_right := (r, t.value) :: !tie_right;
          applied := t :: !applied
      | _ -> (
          match Circuit.find_net_opt left t.name with
          | Some l when source left l ->
              tie_left := (l, t.value) :: !tie_left;
              applied := t :: !applied
          | _ -> err "tie %s names no input of %s or %s" t.name lname rname))
    options.ties;
  (* Unmatched right inputs: convention pins tie to 0, the rest stay free
     (sound — the proof then covers every value they can take). *)
  let free = ref [] in
  Array.iter
    (fun r ->
      if source_map.(r) < 0 then begin
        let nm = Circuit.net_name right r in
        if Hashtbl.mem user_tied nm then ()
        else if convention_tie nm then begin
          tie_right := (r, false) :: !tie_right;
          applied := { name = nm; value = false } :: !applied
        end
        else free := nm :: !free
      end)
    (Circuit.inputs right);
  let extra_flops = ref [] in
  Array.iter
    (fun rq -> if source_map.(rq) < 0 then extra_flops := Circuit.net_name right rq :: !extra_flops)
    (Circuit.flops right);
  let matched_po = Hashtbl.create 16 in
  List.iter (fun (_, ro, _) -> Hashtbl.replace matched_po ro ()) !po_pairs;
  let extra_outputs = ref [] in
  Array.iter
    (fun ro -> if not (Hashtbl.mem matched_po ro) then extra_outputs := Circuit.net_name right ro :: !extra_outputs)
    (Circuit.outputs right);
  {
    source_map;
    po_pairs = Array.of_list (List.rev !po_pairs);
    po_names = Array.of_list (List.rev !po_names);
    ff_pairs = Array.of_list (List.rev !ff_pairs);
    ff_names = Array.of_list (List.rev !ff_names);
    tie_left = !tie_left;
    tie_right = !tie_right;
    applied_ties = List.sort (fun a b -> compare a.name b.name) !applied;
    free_inputs = List.rev !free;
    extra_outputs = List.rev !extra_outputs;
    extra_flops = List.rev !extra_flops;
  }

(* ------------------------------------------------------------------ *)
(* Random-simulation signatures and candidate classes                 *)

(* Signature of every net over [rounds] lane-packed words, canonicalized so
   a net and its complement land in the same class: the phase flag records
   whether the stored words are the complement of the simulated ones. *)
let canonicalize words =
  if words.(0) land 1 = 0 then (words, false)
  else (Array.map (fun w -> lnot w land Lanes.all_mask) words, true)

let sig_key words =
  let b = Buffer.create (Array.length words * 9) in
  Array.iter (fun w -> Buffer.add_string b (string_of_int w ^ ",")) words;
  Buffer.contents b

let simulate ~(options : options) ~m left right =
  let rounds = max 1 options.vectors in
  let nl = Circuit.num_nets left and nr = Circuit.num_nets right in
  let sig_l = Array.make_matrix nl rounds 0 and sig_r = Array.make_matrix nr rounds 0 in
  let pl = Parallel.create left and pr = Parallel.create right in
  let rng = Rng.of_string ("cec:" ^ Circuit.name left ^ ":" ^ Circuit.name right) in
  let word () = Int64.to_int (Rng.next_int64 rng) land Lanes.all_mask in
  let tie_l = Hashtbl.create 8 and tie_r = Hashtbl.create 8 in
  List.iter (fun (n, v) -> Hashtbl.replace tie_l n v) m.tie_left;
  List.iter (fun (n, v) -> Hashtbl.replace tie_r n v) m.tie_right;
  let left_words = Array.make nl 0 in
  let draw_left n =
    let w =
      match Hashtbl.find_opt tie_l n with Some b -> Lanes.broadcast b | None -> word ()
    in
    left_words.(n) <- w;
    w
  in
  let draw_right n =
    if m.source_map.(n) >= 0 then left_words.(m.source_map.(n))
    else match Hashtbl.find_opt tie_r n with Some b -> Lanes.broadcast b | None -> word ()
  in
  for round = 0 to rounds - 1 do
    let lpi = Array.map draw_left (Circuit.inputs left) in
    let lstate = Array.map draw_left (Circuit.flops left) in
    let rpi = Array.map draw_right (Circuit.inputs right) in
    let rstate = Array.map draw_right (Circuit.flops right) in
    ignore (Parallel.run pl ~pi:lpi ~state:lstate ~injections:[]);
    let nv = Parallel.net_values pl in
    for n = 0 to nl - 1 do
      sig_l.(n).(round) <- nv.(n)
    done;
    ignore (Parallel.run pr ~pi:rpi ~state:rstate ~injections:[]);
    let nv = Parallel.net_values pr in
    for n = 0 to nr - 1 do
      sig_r.(n).(round) <- nv.(n)
    done
  done;
  (sig_l, sig_r)

(* Structural hashing, the cheap front half of the sweep.

   The left circuit is first self-hashed into signed canonical
   representatives: BUF forwards, NOT negates, and two gates of the same
   kind over the same canonical fanin literals share one representative
   (XOR/XNOR additionally normalise fanin negations into an output parity).
   Duplicate left gates thereby collapse onto a single net — essential,
   because a right-side copy substituted onto the "wrong" duplicate would
   otherwise break the structural chain for its entire fanout cone.

   A right gate whose fanins all resolve into canonical left literals
   (matched sources or earlier substitutions) then matches a left
   representative by table lookup — same kind over the same literals
   computes the same function, no solver needed. This proves the untouched
   bulk of a transformed netlist outright, leaving SAT for the genuinely
   rewritten spots; without it, the per-output miter of two identical wide
   cones is exponential for a chronological DPLL. *)
type skey = K of Tvs_netlist.Gate.kind * int list | X of int list

let signed_lit (l, neg) = if neg then -(l + 1) else l + 1

let struct_key kind signed =
  match kind with
  | Tvs_netlist.Gate.And | Tvs_netlist.Gate.Nand | Tvs_netlist.Gate.Or | Tvs_netlist.Gate.Nor
    ->
      Some (K (kind, List.sort compare (List.map signed_lit signed)), false)
  | Tvs_netlist.Gate.Xor | Tvs_netlist.Gate.Xnor ->
      let parity =
        List.fold_left
          (fun p (_, neg) -> if neg then not p else p)
          (kind = Tvs_netlist.Gate.Xnor) signed
      in
      Some (X (List.sort compare (List.map fst signed)), parity)
  | Tvs_netlist.Gate.Buf | Tvs_netlist.Gate.Not -> None

let struct_match ~canon ~tbl ~m ~subst right r =
  match Circuit.driver right r with
  | Circuit.Gate_node (kind, ins) -> (
      let map f =
        if m.source_map.(f) >= 0 then Some canon.(m.source_map.(f)) else subst.(f)
      in
      let rec all acc = function
        | [] -> Some (List.rev acc)
        | f :: rest -> ( match map f with Some s -> all (s :: acc) rest | None -> None)
      in
      match all [] (Array.to_list ins) with
      | None -> None
      | Some signed -> (
          match (kind, signed) with
          | Tvs_netlist.Gate.Buf, [ s ] -> Some s
          | Tvs_netlist.Gate.Not, [ (l, p) ] -> Some (l, not p)
          | _ -> (
              match struct_key kind signed with
              | None -> None
              | Some (key, parity) -> (
                  match Hashtbl.find_opt tbl key with
                  | Some (rep, rep_parity) ->
                      (* the table entry may itself have been merged into
                         another representative by the left self-sweep *)
                      let rep', p' = canon.(rep) in
                      Some (rep', p' <> rep_parity <> parity)
                  | None -> None))))
  | _ -> None

(* SAT-sweep the internal nets, in two passes over one signature space.

   Pass one self-sweeps the left circuit: structurally distinct left nets
   that random simulation puts in one class and a cone-local SAT proof
   confirms equal are merged into one canonical representative. This is
   what keeps the per-point miters cheap when a transformation re-expresses
   an output in terms of a *different but equivalent* left cone — without
   the merge, the final miter would have to prove two full left cones equal
   under the whole budget.

   Pass two walks the right circuit: structural matches substitute for
   free, and every remaining right gate net whose signature class contains
   a left net is a candidate; an UNSAT cone-local miter promotes the pair
   into the substitution table, shrinking every later cone. *)
let sweep ~(options : options) ~m left right sig_l sig_r =
  let budget = max 2_000 (options.budget / 100) in
  let index = Hashtbl.create 256 in
  let add_candidate n (words : int array array) =
    let canon, phase = canonicalize words.(n) in
    let key = sig_key canon in
    let prior = try Hashtbl.find index key with Not_found -> [] in
    if List.length prior < 4 then Hashtbl.replace index key (prior @ [ (n, phase) ])
  in
  Array.iter (fun n -> add_candidate n sig_l) (Circuit.inputs left);
  Array.iter (fun n -> add_candidate n sig_l) (Circuit.flops left);
  Array.iter (fun n -> add_candidate n sig_l) (Circuit.topo_order left);
  let subst = Array.make (Circuit.num_nets right) None in
  let classes = Hashtbl.create 64 in
  let proved = ref 0 and calls = ref 0 and decisions = ref 0 and propagations = ref 0 in
  let count (st : Sat.stats) =
    incr calls;
    decisions := !decisions + st.Sat.decisions;
    propagations := !propagations + st.Sat.propagations
  in
  (* Pass one: canonicalize the left circuit. One topological walk folds
     BUF/NOT chains, collapses structural duplicates (same kind over the
     same canonical fanin literals), and — where structure alone does not
     close the gap — merges signature-class members confirmed equal by a
     cone-local SAT proof. Structural keys are computed over the *merged*
     fanin space, so a SAT merge upstream immediately re-enables structural
     collapsing downstream. Every canon entry written here points at a
     final representative (candidates are never re-merged), so consumers
     resolve in one step. [selfsubst] lets a proof miter borrow the
     already-encoded canonical literal for every fanin, so each attempt
     encodes exactly one new gate on its right side. *)
  let nl = Circuit.num_nets left in
  let canon = Array.init nl (fun i -> (i, false)) in
  let struct_tbl = Hashtbl.create 256 in
  let id_source_map =
    Array.init nl (fun n ->
        match Circuit.driver left n with
        | Circuit.Primary_input | Circuit.Flip_flop _ -> n
        | Circuit.Gate_node _ | Circuit.Const _ -> -1)
  in
  let selfsubst = Array.make nl None in
  let lindex = Hashtbl.create 256 in
  let class_of n =
    let words, phase = canonicalize sig_l.(n) in
    (sig_key words, phase)
  in
  let add_rep n =
    let key, phase = class_of n in
    let prior = try Hashtbl.find lindex key with Not_found -> [] in
    if List.length prior < 4 then Hashtbl.replace lindex key (prior @ [ (n, phase) ])
  in
  Array.iter add_rep (Circuit.inputs left);
  Array.iter add_rep (Circuit.flops left);
  Array.iter
    (fun g ->
      (match Circuit.driver left g with
      | Circuit.Gate_node (kind, ins) -> (
          let signed = List.map (fun f -> canon.(f)) (Array.to_list ins) in
          (match (kind, signed) with
          | Tvs_netlist.Gate.Buf, [ s ] -> canon.(g) <- s
          | Tvs_netlist.Gate.Not, [ (l, p) ] -> canon.(g) <- (l, not p)
          | _ -> (
              match struct_key kind signed with
              | None -> ()
              | Some (key, parity) -> (
                  match Hashtbl.find_opt struct_tbl key with
                  | Some (rep, rep_parity) ->
                      let rep', p' = canon.(rep) in
                      canon.(g) <- (rep', p' <> rep_parity <> parity)
                  | None -> Hashtbl.add struct_tbl key (g, parity))));
          if fst canon.(g) = g then begin
            let key, phase_g = class_of g in
            (match Hashtbl.find_opt lindex key with
            | None -> ()
            | Some candidates ->
                Hashtbl.replace classes key ();
                let tried = ref 0 in
                List.iter
                  (fun (l, phase_l) ->
                    if fst canon.(g) = g && l <> g && !tried < 2 then begin
                      incr tried;
                      let miter =
                        Miter.create ~left ~right:left ~canon ~source_map:id_source_map
                          ~subst:selfsubst ~tie_left:m.tie_left ~tie_right:m.tie_left ()
                      in
                      let phase = phase_l <> phase_g in
                      let v, st = Miter.check_pair miter ~budget ~left:l ~right:g ~phase in
                      count st;
                      match v with
                      | Miter.Proven ->
                          canon.(g) <- (l, phase);
                          incr proved
                      | Miter.Refuted _ | Miter.Undecided -> ()
                    end)
                  candidates);
            if fst canon.(g) = g then add_rep g
          end)
      | _ -> ());
      selfsubst.(g) <- Some canon.(g))
    (Circuit.topo_order left);
  (* Pass two: sweep the right circuit against the merged left space. *)
  Array.iter
    (fun r ->
      match Circuit.driver right r with
      | Circuit.Gate_node _ when m.source_map.(r) < 0 -> (
          match struct_match ~canon ~tbl:struct_tbl ~m ~subst right r with
          | Some (l, phase) ->
              subst.(r) <- Some (l, phase);
              incr proved
          | None -> (
              let words, phase_r = canonicalize sig_r.(r) in
              let key = sig_key words in
              match Hashtbl.find_opt index key with
              | None -> ()
              | Some candidates ->
                  Hashtbl.replace classes key ();
                  let tried = ref 0 in
                  List.iter
                    (fun (l, phase_l) ->
                      if subst.(r) = None && !tried < 2 then begin
                        incr tried;
                        let miter =
                          Miter.create ~left ~right ~canon ~source_map:m.source_map ~subst
                            ~tie_left:m.tie_left ~tie_right:m.tie_right ()
                        in
                        let phase = phase_l <> phase_r in
                        let v, st = Miter.check_pair miter ~budget ~left:l ~right:r ~phase in
                        incr calls;
                        decisions := !decisions + st.Sat.decisions;
                        propagations := !propagations + st.Sat.propagations;
                        match v with
                        | Miter.Proven ->
                            (* store canonically so downstream structural
                               matches keep resolving *)
                            let rep, rep_phase = canon.(l) in
                            subst.(r) <- Some (rep, rep_phase <> phase);
                            incr proved
                        | Miter.Refuted _ | Miter.Undecided -> ()
                      end)
                    candidates))
      | _ -> ())
    (Circuit.topo_order right);
  (canon, subst, Hashtbl.length classes, !proved, !calls, !decisions, !propagations)

(* ------------------------------------------------------------------ *)
(* Per-output miters                                                  *)

type output_check = O_equal | O_diff of counterexample | O_undecided

let observation_points m =
  Array.append
    (Array.mapi (fun i nm -> (Po nm, m.po_pairs.(i))) m.po_names)
    (Array.mapi (fun i nm -> (Capture nm, m.ff_pairs.(i))) m.ff_names)

let check_point ~(options : options) ~m ~canon ~subst left right (pt, (lnet, rnet, _)) =
  let miter =
    Miter.create ~left ~right ~canon ~source_map:m.source_map ~subst ~tie_left:m.tie_left
      ~tie_right:m.tie_right ()
  in
  let v, st = Miter.check_pair miter ~budget:options.budget ~left:lnet ~right:rnet ~phase:false in
  let check =
    match v with
    | Miter.Proven -> O_equal
    | Miter.Undecided -> O_undecided
    | Miter.Refuted model ->
        O_diff
          {
            point = pt;
            left_pi = Array.map (Miter.left_value miter model) (Circuit.inputs left);
            left_state = Array.map (Miter.left_value miter model) (Circuit.flops left);
            right_pi = Array.map (Miter.right_value miter model) (Circuit.inputs right);
            right_state = Array.map (Miter.right_value miter model) (Circuit.flops right);
            left_value = Miter.left_value miter model lnet;
            right_value = Miter.right_value miter model rnet;
          }
  in
  (check, st)

(* Replay a counterexample through both word-parallel simulators; a vector
   the simulators do not confirm means a solver or encoder bug, and must
   never be reported as a verdict. *)
let replay_confirms left right m cex =
  let value c pi state pt =
    let sim = Parallel.create c in
    let po, capture = Parallel.run_single sim ~pi ~state in
    match pt with
    | `Po i -> po.(i)
    | `Ff i -> capture.(i)
  in
  let lpt, rpt =
    match cex.point with
    | Po nm ->
        let li = ref (-1) in
        Array.iteri (fun i n -> if Circuit.net_name left n = nm then li := i) (Circuit.outputs left);
        let ri = ref (-1) in
        Array.iteri (fun i (_, _, rpos) -> if m.po_names.(i) = nm then ri := rpos) m.po_pairs;
        (`Po !li, `Po !ri)
    | Capture nm ->
        let li = ref (-1) in
        Array.iteri (fun i n -> if Circuit.net_name left n = nm then li := i) (Circuit.flops left);
        let ri = ref (-1) in
        Array.iteri (fun i (_, _, rpos) -> if m.ff_names.(i) = nm then ri := rpos) m.ff_pairs;
        (`Ff !li, `Ff !ri)
  in
  let lv = value left cex.left_pi cex.left_state lpt in
  let rv = value right cex.right_pi cex.right_state rpt in
  lv = cex.left_value && rv = cex.right_value && lv <> rv

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)

let cache_kind = "CEQV"
let schema_version = 1

let options_digest o =
  Store_digest.of_encoding (fun w ->
      Wire.write_varint w schema_version;
      Wire.write_varint w o.vectors;
      Wire.write_varint w o.budget;
      (* Convention pins are always recognised; the byte keeps the keys of
         entries written while that was an option. *)
      Wire.write_bool w true;
      let ties = List.sort (fun a b -> compare a.name b.name) o.ties in
      Wire.write_list
        (fun w t ->
          Wire.write_string w t.name;
          Wire.write_bool w t.value)
        w ties)

let check_key ~options left right =
  Store_digest.combine
    (Store_digest.circuit left)
    (Store_digest.combine (Store_digest.circuit right) (options_digest options))

let encode_point w = function
  | Po s ->
      Wire.write_u8 w 0;
      Wire.write_string w s
  | Capture s ->
      Wire.write_u8 w 1;
      Wire.write_string w s

let decode_point r =
  match Wire.read_u8 r with
  | 0 -> Po (Wire.read_string r)
  | 1 -> Capture (Wire.read_string r)
  | k -> raise (Wire.Error (Printf.sprintf "bad observation-point tag %d" k))

let encode_tie w t =
  Wire.write_string w t.name;
  Wire.write_bool w t.value

let decode_tie r =
  let name = Wire.read_string r in
  { name; value = Wire.read_bool r }

let encode_result w r =
  Wire.write_string w r.left;
  Wire.write_string w r.right;
  (match r.verdict with
  | Equivalent -> Wire.write_u8 w 0
  | Inequivalent cex ->
      Wire.write_u8 w 1;
      encode_point w cex.point;
      Wire.write_bool_array w cex.left_pi;
      Wire.write_bool_array w cex.left_state;
      Wire.write_bool_array w cex.right_pi;
      Wire.write_bool_array w cex.right_state;
      Wire.write_bool w cex.left_value;
      Wire.write_bool w cex.right_value
  | Unknown pts ->
      Wire.write_u8 w 2;
      Wire.write_list encode_point w pts);
  Wire.write_varint w r.matched_pis;
  Wire.write_varint w r.matched_flops;
  Wire.write_varint w r.matched_pos;
  Wire.write_list encode_tie w r.ties;
  Wire.write_list Wire.write_string w r.free_inputs;
  Wire.write_list Wire.write_string w r.extra_outputs;
  Wire.write_list Wire.write_string w r.extra_flops;
  Wire.write_varint w r.classes;
  Wire.write_varint w r.proved;
  Wire.write_varint w r.sat_calls;
  Wire.write_varint w r.decisions;
  Wire.write_varint w r.propagations

let decode_result r =
  let left = Wire.read_string r in
  let right = Wire.read_string r in
  let verdict =
    match Wire.read_u8 r with
    | 0 -> Equivalent
    | 1 ->
        let point = decode_point r in
        let left_pi = Wire.read_bool_array r in
        let left_state = Wire.read_bool_array r in
        let right_pi = Wire.read_bool_array r in
        let right_state = Wire.read_bool_array r in
        let left_value = Wire.read_bool r in
        let right_value = Wire.read_bool r in
        Inequivalent { point; left_pi; left_state; right_pi; right_state; left_value; right_value }
    | 2 -> Unknown (Wire.read_list decode_point r)
    | k -> raise (Wire.Error (Printf.sprintf "bad verdict tag %d" k))
  in
  let matched_pis = Wire.read_varint r in
  let matched_flops = Wire.read_varint r in
  let matched_pos = Wire.read_varint r in
  let ties = Wire.read_list decode_tie r in
  let free_inputs = Wire.read_list Wire.read_string r in
  let extra_outputs = Wire.read_list Wire.read_string r in
  let extra_flops = Wire.read_list Wire.read_string r in
  let classes = Wire.read_varint r in
  let proved = Wire.read_varint r in
  let sat_calls = Wire.read_varint r in
  let decisions = Wire.read_varint r in
  let propagations = Wire.read_varint r in
  {
    left;
    right;
    verdict;
    matched_pis;
    matched_flops;
    matched_pos;
    ties;
    free_inputs;
    extra_outputs;
    extra_flops;
    classes;
    proved;
    sat_calls;
    decisions;
    propagations;
    cached = false;
  }

(* ------------------------------------------------------------------ *)
(* Top-level check                                                    *)

let count_verdict = function
  | Equivalent -> Metrics.incr m_equivalent
  | Inequivalent _ -> Metrics.incr m_inequivalent
  | Unknown _ -> Metrics.incr m_unknown

let compute ~options left right =
  let m = build_matching ~options left right in
  let sig_l, sig_r = simulate ~options ~m left right in
  let canon, subst, classes, proved, s_calls, s_decisions, s_propagations =
    sweep ~options ~m left right sig_l sig_r
  in
  let pts = observation_points m in
  let n = Array.length pts in
  (* Phase B: independent cone-local miters, one per observation point,
     fanned across the domain pool. The merge below reads the slot array in
     index order, so the verdict — including which counterexample is
     reported — is identical at every [--jobs]. *)
  let pool = Pool.shared ~jobs:(Pool.default_jobs ()) in
  let checks =
    Pool.parallel_map_chunks pool ~n (fun ~slot:_ i ->
        check_point ~options ~m ~canon ~subst left right pts.(i))
  in
  let calls = ref s_calls and decisions = ref s_decisions and propagations = ref s_propagations in
  Array.iter
    (fun (_, st) ->
      incr calls;
      decisions := !decisions + st.Sat.decisions;
      propagations := !propagations + st.Sat.propagations)
    checks;
  let first_diff = ref None and undecided = ref [] in
  Array.iteri
    (fun i (check, _) ->
      match check with
      | O_equal -> ()
      | O_undecided -> undecided := fst pts.(i) :: !undecided
      | O_diff cex -> if !first_diff = None then first_diff := Some cex)
    checks;
  let verdict =
    match !first_diff with
    | Some cex ->
        if not (replay_confirms left right m cex) then
          failwith "tvs_cec: counterexample not confirmed by simulation (solver/encoder bug)";
        Inequivalent cex
    | None -> if !undecided = [] then Equivalent else Unknown (List.rev !undecided)
  in
  {
    left = Circuit.name left;
    right = Circuit.name right;
    verdict;
    matched_pis = Circuit.num_inputs left;
    matched_flops = Circuit.num_flops left;
    matched_pos = Circuit.num_outputs left;
    ties = m.applied_ties;
    free_inputs = m.free_inputs;
    extra_outputs = m.extra_outputs;
    extra_flops = m.extra_flops;
    classes;
    proved;
    sat_calls = !calls;
    decisions = !decisions;
    propagations = !propagations;
    cached = false;
  }

let check ?(options = default_options) left right =
  Metrics.incr m_checks;
  let r, cached =
    Cache.memo ~kind:cache_kind
      ~key:(fun () -> check_key ~options left right)
      encode_result decode_result
      (fun () -> compute ~options left right)
  in
  let r = { r with cached } in
  count_verdict r.verdict;
  if r.cached then Metrics.incr m_cached
  else begin
    Metrics.add m_points (points r);
    Metrics.add m_classes r.classes;
    Metrics.add m_proved r.proved;
    Metrics.add m_sat_calls r.sat_calls;
    Metrics.add m_sat_decisions r.decisions;
    Metrics.add m_sat_propagations r.propagations
  end;
  r

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let verdict_name = function
  | Equivalent -> "equivalent"
  | Inequivalent _ -> "inequivalent"
  | Unknown _ -> "unknown"

let bits a =
  if Array.length a = 0 then "-"
  else String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')

let tie_string t = Printf.sprintf "%s=%d" t.name (if t.value then 1 else 0)

(* [cached] is deliberately absent from both renderings: a replayed check
   must be byte-identical to the run that produced it. *)
let to_ascii r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cec %s vs %s: %s\n" r.left r.right (String.uppercase_ascii (verdict_name r.verdict));
  pf "  points : %d (%d po + %d ff capture)\n" (points r) r.matched_pos r.matched_flops;
  pf "  inputs : %d pi + %d ff matched\n" r.matched_pis r.matched_flops;
  if r.ties <> [] then pf "  ties   : %s\n" (String.concat " " (List.map tie_string r.ties));
  if r.free_inputs <> [] then pf "  free   : %s\n" (String.concat " " r.free_inputs);
  if r.extra_outputs <> [] then pf "  extra  : po %s\n" (String.concat " po " r.extra_outputs);
  if r.extra_flops <> [] then pf "  extra  : ff %s\n" (String.concat " ff " r.extra_flops);
  pf "  sweep  : %d classes, %d internal equivalences proven\n" r.classes r.proved;
  pf "  sat    : %d calls, %d decisions, %d propagations\n" r.sat_calls r.decisions r.propagations;
  (match r.verdict with
  | Equivalent | Unknown [] -> ()
  | Unknown pts -> pf "  undecided: %s\n" (String.concat ", " (List.map point_label pts))
  | Inequivalent cex ->
      pf "  counterexample at %s (simulation confirmed):\n" (point_label cex.point);
      pf "    left  pi=%s state=%s -> %d\n" (bits cex.left_pi) (bits cex.left_state)
        (if cex.left_value then 1 else 0);
      pf "    right pi=%s state=%s -> %d\n" (bits cex.right_pi) (bits cex.right_state)
        (if cex.right_value then 1 else 0));
  Buffer.contents b

let json_of_point p =
  Json.Obj [ ("kind", Json.Str (point_kind p)); ("name", Json.Str (point_target p)) ]

let to_json r =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.Str "cec");
      ("left", Json.Str r.left);
      ("right", Json.Str r.right);
      ("verdict", Json.Str (verdict_name r.verdict));
      ("points", Json.Int (points r));
      ( "matched",
        Json.Obj
          [
            ("pi", Json.Int r.matched_pis);
            ("ff", Json.Int r.matched_flops);
            ("po", Json.Int r.matched_pos);
          ] );
      ( "ties",
        Json.Arr
          (List.map
             (fun t ->
               Json.Obj
                 [ ("name", Json.Str t.name); ("value", Json.Int (if t.value then 1 else 0)) ])
             r.ties) );
      ("free_inputs", strs r.free_inputs);
      ("extra_outputs", strs r.extra_outputs);
      ("extra_flops", strs r.extra_flops);
      ("sweep", Json.Obj [ ("classes", Json.Int r.classes); ("proved", Json.Int r.proved) ]);
      ( "sat",
        Json.Obj
          [
            ("calls", Json.Int r.sat_calls);
            ("decisions", Json.Int r.decisions);
            ("propagations", Json.Int r.propagations);
          ] );
      ( "undecided",
        match r.verdict with
        | Unknown pts -> Json.Arr (List.map json_of_point pts)
        | Equivalent | Inequivalent _ -> Json.Arr [] );
      ( "counterexample",
        match r.verdict with
        | Inequivalent cex ->
            Json.Obj
              [
                ("point", json_of_point cex.point);
                ( "left",
                  Json.Obj
                    [
                      ("pi", Json.Str (bits cex.left_pi));
                      ("state", Json.Str (bits cex.left_state));
                      ("value", Json.Int (if cex.left_value then 1 else 0));
                    ] );
                ( "right",
                  Json.Obj
                    [
                      ("pi", Json.Str (bits cex.right_pi));
                      ("state", Json.Str (bits cex.right_state));
                      ("value", Json.Int (if cex.right_value then 1 else 0));
                    ] );
              ]
        | Equivalent | Unknown _ -> Json.Null );
    ]

let to_json_string r = Json.to_string (to_json r)
