type program = { chain_len : int; npi : int; ops : Protocol.op list }

exception Parse_error of int * string

let of_stitched ~chain_len ~npi ~vectors =
  let ops = Protocol.stitched_ops ~vectors @ Protocol.full_unload_ops ~chain_len in
  { chain_len; npi; ops }

let bits_to_string arr = String.init (Array.length arr) (fun i -> if arr.(i) then '1' else '0')

let to_string p =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "tvs-program v1\n";
  Buffer.add_string buf (Printf.sprintf "chain %d\n" p.chain_len);
  Buffer.add_string buf (Printf.sprintf "pins %d\n" p.npi);
  List.iter
    (fun op ->
      match op with
      | Protocol.Shift bit -> Buffer.add_string buf (Printf.sprintf "shift %d\n" (if bit then 1 else 0))
      | Protocol.Capture pi -> Buffer.add_string buf (Printf.sprintf "capture %s\n" (bits_to_string pi)))
    p.ops;
  Buffer.contents buf

let parse_bits lineno s =
  Array.init (String.length s) (fun i ->
      match s.[i] with
      | '0' -> false
      | '1' -> true
      | c -> raise (Parse_error (lineno, Printf.sprintf "bad bit %C" c)))

let of_string text =
  let lines = String.split_on_char '\n' text in
  let chain_len = ref None and npi = ref None and ops = ref [] in
  let seen_header = ref false in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line =
        match String.index_opt raw '#' with
        | Some j -> String.trim (String.sub raw 0 j)
        | None -> String.trim raw
      in
      if line <> "" then
        match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
        | [ "tvs-program"; "v1" ] -> seen_header := true
        | [ "chain"; n ] -> chain_len := int_of_string_opt n
        | [ "pins"; n ] -> npi := int_of_string_opt n
        | [ "shift"; b ] -> (
            match b with
            | "0" -> ops := Protocol.Shift false :: !ops
            | "1" -> ops := Protocol.Shift true :: !ops
            | _ -> raise (Parse_error (lineno, "shift takes 0 or 1")))
        | [ "capture" ] -> ops := Protocol.Capture [||] :: !ops
        | [ "capture"; bits ] -> ops := Protocol.Capture (parse_bits lineno bits) :: !ops
        | _ -> raise (Parse_error (lineno, Printf.sprintf "unrecognised statement %S" line)))
    lines;
  if not !seen_header then raise (Parse_error (1, "missing tvs-program header"));
  match (!chain_len, !npi) with
  | Some chain_len, Some npi when chain_len > 0 && npi >= 0 ->
      let p = { chain_len; npi; ops = List.rev !ops } in
      List.iter
        (function
          | Protocol.Capture pi when Array.length pi <> npi ->
              raise (Parse_error (0, "capture width disagrees with pins"))
          | Protocol.Capture _ | Protocol.Shift _ -> ())
        p.ops;
      p
  | _ -> raise (Parse_error (1, "missing or invalid chain/pins declaration"))

let write_file path p =
  let oc = open_out path in
  output_string oc (to_string p);
  close_out oc

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_string text

let num_shift_cycles p =
  List.fold_left
    (fun acc op -> match op with Protocol.Shift _ -> acc + 1 | Protocol.Capture _ -> acc)
    0 p.ops

let num_captures p =
  List.fold_left
    (fun acc op -> match op with Protocol.Capture _ -> acc + 1 | Protocol.Shift _ -> acc)
    0 p.ops
