exception Parse_error of int * string

type statement =
  | St_input of string
  | St_output of string
  | St_dff of string * string
  | St_gate of string * Gate.kind * string list
  | St_const of string * bool

let fail line msg = raise (Parse_error (line, msg))

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '[' | ']' | '-' | '$' -> true
  | _ -> false

let split_args s =
  String.split_on_char ',' s |> List.map String.trim |> List.filter (fun a -> a <> "")

(* Parses "HEAD(arg1, arg2, ...)" returning (head, args). *)
let parse_call lineno s =
  match String.index_opt s '(' with
  | None -> fail lineno (Printf.sprintf "expected a call, got %S" s)
  | Some lp ->
      let head = String.trim (String.sub s 0 lp) in
      let len = String.length s in
      if len = 0 || s.[len - 1] <> ')' then fail lineno "missing closing parenthesis";
      let args = String.sub s (lp + 1) (len - lp - 2) in
      (head, split_args args)

let check_ident lineno nm =
  if nm = "" then fail lineno "empty net name";
  String.iter
    (fun c -> if not (is_ident_char c) then fail lineno (Printf.sprintf "bad character %C in name %S" c nm))
    nm

let parse_statement lineno line =
  let line = String.trim (strip_comment line) in
  if line = "" then None
  else
    match String.index_opt line '=' with
    | None -> (
        let head, args = parse_call lineno line in
        match (String.uppercase_ascii head, args) with
        | "INPUT", [ nm ] ->
            check_ident lineno nm;
            Some (St_input nm)
        | "OUTPUT", [ nm ] ->
            check_ident lineno nm;
            Some (St_output nm)
        | ("INPUT" | "OUTPUT"), _ -> fail lineno "INPUT/OUTPUT take exactly one name"
        | _ -> fail lineno (Printf.sprintf "unknown statement %S" head))
    | Some eq ->
        let target = String.trim (String.sub line 0 eq) in
        check_ident lineno target;
        let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
        let head, args = parse_call lineno rhs in
        if String.uppercase_ascii head = "DFF" then
          match args with
          | [ d ] ->
              check_ident lineno d;
              Some (St_dff (target, d))
          | _ -> fail lineno "DFF takes exactly one data net"
        else
          match Gate.of_string head with
          | None -> fail lineno (Printf.sprintf "unknown gate kind %S" head)
          | Some kind ->
              if not (Gate.arity_ok kind (List.length args)) then
                fail lineno
                  (Printf.sprintf "gate %s: invalid arity %d" (Gate.to_string kind)
                     (List.length args));
              List.iter (check_ident lineno) args;
              Some (St_gate (target, kind, args))

let statements_of_string text =
  let statements = ref [] in
  String.split_on_char '\n' text
  |> List.iteri (fun i line ->
         match parse_statement (i + 1) line with
         | Some st -> statements := (i + 1, st) :: !statements
         | None -> ());
  List.rev !statements

let line_of_net numbered =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (lineno, st) ->
      match st with
      | St_input nm | St_dff (nm, _) | St_gate (nm, _, _) | St_const (nm, _) ->
          if not (Hashtbl.mem tbl nm) then Hashtbl.add tbl nm lineno
      | St_output _ -> ())
    numbered;
  tbl

let circuit_of_statements ~name numbered =
  (* Pass 0: reject duplicate definitions up front, with both line numbers.
     Without this, the second definition of a net would either silently
     shadow the first in pass 2's gate index or surface as a context-free
     [Build_error]; a net is defined by INPUT, a DFF target, or a gate
     target. Duplicate OUTPUT lines are rejected too — they would silently
     duplicate the outputs array. Both name tables are sized from the
     statement count, an upper bound on the nets defined, so they never
     grow. *)
  let statements = List.length numbered in
  let defined_at = Hashtbl.create statements in
  let output_at = Hashtbl.create 16 in
  List.iter
    (fun (lineno, st) ->
      let check_dup tbl what nm =
        match Hashtbl.find_opt tbl nm with
        | Some first ->
            fail lineno
              (Printf.sprintf "duplicate %s of net %S (first defined at line %d)" what nm first)
        | None -> Hashtbl.add tbl nm lineno
      in
      match st with
      | St_input nm | St_dff (nm, _) | St_gate (nm, _, _) | St_const (nm, _) ->
          check_dup defined_at "definition" nm
      | St_output nm -> check_dup output_at "OUTPUT declaration" nm)
    numbered;
  let b = Circuit.Builder.create name in
  (* Pass 1: declare inputs, constants and flip-flops (forward), recording
     definitions. *)
  let defined = Hashtbl.create statements in
  let declare nm net = Hashtbl.replace defined nm net in
  List.iter
    (fun (_, st) ->
      match st with
      | St_input nm -> declare nm (Circuit.Builder.input b nm)
      | St_const (nm, v) -> declare nm (Circuit.Builder.const b ~name:nm v)
      | St_dff (q, _) -> declare q (Circuit.Builder.flop_forward b q)
      | St_output _ | St_gate _ -> ())
    numbered;
  (* Pass 2: create gates in dependency order, whatever order the file
     lists them in. Net numbering (and so every circuit digest, cache key
     and checkpoint) is that of a fixpoint which sweeps the remaining gates
     in list order, defining each whose fanins exist, until a sweep defines
     nothing. A fanin gate listed before g can be defined earlier in g's
     sweep, one listed after g only in an earlier sweep, so g is defined in
     sweep pass(g) = max(1, max over gate fanins h of pass(h) + [h listed
     after g]). Compute that in Kahn order, then declare the gates in
     (pass, list) order: linear time, where the fixpoint took one sweep per
     out-of-order level. *)
  let gates =
    Array.of_list
      (List.filter_map
         (function
           | lineno, St_gate (nm, k, ins) -> Some (lineno, nm, k, ins)
           | _, (St_input _ | St_output _ | St_dff _ | St_const _) -> None)
         numbered)
  in
  let n = Array.length gates in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i (_, nm, _, _) -> Hashtbl.replace index nm i) gates;
  (* [waiting.(i)] counts gate i's fanin pins not yet defined; a pin on a
     name nothing defines is never released. *)
  let waiting = Array.make n 0 and readers = Array.make n [] in
  Array.iteri
    (fun i (_, _, _, ins) ->
      List.iter
        (fun nm ->
          match Hashtbl.find_opt index nm with
          | Some h ->
              waiting.(i) <- waiting.(i) + 1;
              readers.(h) <- i :: readers.(h)
          | None -> if not (Hashtbl.mem defined nm) then waiting.(i) <- waiting.(i) + 1)
        ins)
    gates;
  let pass = Array.make n 1 and queue = Queue.create () in
  Array.iteri (fun i w -> if w = 0 then Queue.add i queue) waiting;
  while not (Queue.is_empty queue) do
    let h = Queue.pop queue in
    List.iter
      (fun i ->
        pass.(i) <- max pass.(i) (if h > i then pass.(h) + 1 else pass.(h));
        waiting.(i) <- waiting.(i) - 1;
        if waiting.(i) = 0 then Queue.add i queue)
      readers.(h)
  done;
  (* Bucket the reached gates by pass, each bucket in list order. *)
  let buckets = Array.make (n + 1) [] in
  for i = n - 1 downto 0 do
    if waiting.(i) = 0 then buckets.(pass.(i)) <- i :: buckets.(pass.(i))
  done;
  Array.iter
    (List.iter (fun i ->
         let _, nm, kind, ins = gates.(i) in
         declare nm (Circuit.Builder.gate b ~name:nm kind (List.map (Hashtbl.find defined) ins))))
    buckets;
  (match List.filter (fun i -> waiting.(i) > 0) (List.init n Fun.id) with
  | [] -> ()
  | first :: _ as stalled ->
      (* A gate never reached is either a reference to a name nothing
         defines, or gates defining each other in a combinational cycle —
         tell them apart so the error names the real problem. *)
      let lineno, nm, _, ins = gates.(first) in
      let missing = List.filter (fun i -> not (Hashtbl.mem defined i)) ins in
      let undeclared = List.filter (fun i -> not (Hashtbl.mem defined_at i)) missing in
      if undeclared <> [] then
        fail lineno
          (Printf.sprintf "gate %s references undefined net(s): %s" nm
             (String.concat ", " undeclared))
      else
        fail lineno
          (Printf.sprintf "combinational cycle through gate(s): %s"
             (String.concat ", " (List.map (fun i -> let _, g, _, _ = gates.(i) in g) stalled))));
  (* Pass 3: resolve flip-flop data nets and outputs. *)
  List.iter
    (fun (lineno, st) ->
      match st with
      | St_dff (q, d) -> (
          match Hashtbl.find_opt defined d with
          | Some dnet -> Circuit.Builder.connect_flop b (Hashtbl.find defined q) dnet
          | None -> fail lineno (Printf.sprintf "flop %s references undefined net %s" q d))
      | St_output nm -> (
          match Hashtbl.find_opt defined nm with
          | Some net -> Circuit.Builder.mark_output b net
          | None -> fail lineno ("OUTPUT references undefined net " ^ nm))
      | St_input _ | St_gate _ | St_const _ -> ())
    numbered;
  Circuit.Builder.finish b

let parse_string ~name text = circuit_of_statements ~name (statements_of_string text)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let base = Filename.remove_extension (Filename.basename path) in
  parse_string ~name:base text

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# %s\n" (Circuit.name c));
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" (Circuit.net_name c n))) (Circuit.inputs c);
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" (Circuit.net_name c n))) (Circuit.outputs c);
  Buffer.add_char buf '\n';
  for net = 0 to Circuit.num_nets c - 1 do
    match Circuit.driver c net with
    | Circuit.Primary_input -> ()
    | Circuit.Flip_flop d ->
        Buffer.add_string buf
          (Printf.sprintf "%s = DFF(%s)\n" (Circuit.net_name c net) (Circuit.net_name c d))
    | Circuit.Gate_node (kind, ins) ->
        let args = Array.to_list ins |> List.map (Circuit.net_name c) |> String.concat ", " in
        Buffer.add_string buf
          (Printf.sprintf "%s = %s(%s)\n" (Circuit.net_name c net) (Gate.to_string kind) args)
    | Circuit.Const v ->
        (* .bench has no constant statement; encode as a degenerate gate pair
           driven from itself via XOR/XNOR is unsound, so emit a comment and
           rely on validation rejecting round-trips of constant circuits. *)
        Buffer.add_string buf
          (Printf.sprintf "# CONST %s = %b (not representable in .bench)\n" (Circuit.net_name c net) v)
  done;
  Buffer.contents buf

let write_file path c =
  let oc = open_out path in
  output_string oc (to_string c);
  close_out oc
