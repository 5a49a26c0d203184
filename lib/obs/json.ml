type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf f =
  if Float.is_finite f then begin
    (* %.17g round-trips every double; trim the common integral case. *)
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s
  end
  else Buffer.add_string buf "null"

let rec add_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_to buf v)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          add_to buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_to buf v;
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let error cur msg = raise (Bad (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let n = String.length cur.src in
  while
    cur.pos < n
    && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> error cur (Printf.sprintf "expected %C, found %C" c got)
  | None -> error cur (Printf.sprintf "expected %C, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && String.sub cur.src cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "invalid literal (expected %s)" word)

let parse_string cur =
  expect cur '"';
  let src = cur.src in
  let n = String.length src in
  let buf = Buffer.create 16 in
  (* The end of the run of bytes from [i] that stand for themselves. *)
  let rec plain i =
    if i < n then match String.unsafe_get src i with '"' | '\\' -> i | _ -> plain (i + 1) else i
  in
  let rec go () =
    let stop = plain cur.pos in
    Buffer.add_substring buf src cur.pos (stop - cur.pos);
    cur.pos <- stop;
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some _ -> (
        (* a backslash *)
        advance cur;
        match peek cur with
        | None -> error cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if cur.pos + 4 > String.length cur.src then error cur "truncated \\u escape";
                let hex = String.sub cur.src cur.pos 4 in
                let code =
                  match int_of_string_opt ("0x" ^ hex) with
                  | Some c -> c
                  | None -> error cur "invalid \\u escape"
                in
                cur.pos <- cur.pos + 4;
                (* Encode the code point as UTF-8; surrogate pairs are left
                   as two separate 3-byte encodings (the report and trace
                   emitters never produce them). *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> error cur (Printf.sprintf "invalid escape \\%C" c));
            go ())
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let n = String.length cur.src in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while cur.pos < n && is_num_char cur.src.[cur.pos] do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) in
  match (integral, int_of_string_opt s, float_of_string_opt s) with
  | true, Some i, _ -> Int i
  | _, _, Some f -> Float f
  | _ -> error cur (Printf.sprintf "invalid number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        Arr []
      end
      else begin
        let items = ref [ parse_value cur ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          items := parse_value cur :: !items;
          skip_ws cur
        done;
        expect cur ']';
        Arr (List.rev !items)
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let pair () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          (k, v)
        in
        let members = ref [ pair () ] in
        skip_ws cur;
        while peek cur = Some ',' do
          advance cur;
          members := pair () :: !members;
          skip_ws cur
        done;
        expect cur '}';
        Obj (List.rev !members)
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> error cur (Printf.sprintf "unexpected character %C" c)

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
      else Ok v
  | exception Bad msg -> Error msg

(* --- helpers ---------------------------------------------------------- *)

let member k = function Obj members -> List.assoc_opt k members | _ -> None

let rec sort_keys = function
  | Obj members ->
      Obj
        (List.sort
           (fun (a, _) (b, _) -> compare a b)
           (List.map (fun (k, v) -> (k, sort_keys v)) members))
  | Arr items -> Arr (List.map sort_keys items)
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> v
