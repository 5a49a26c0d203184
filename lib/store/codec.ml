module Wire = Tvs_util.Wire
module Crc32 = Tvs_util.Crc32

let schema_version = 2

(* "TVS" plus a non-ASCII byte so a frame is never mistaken for text. *)
let magic = "TVS\x01"

let header_len = 4 + 4 + 1 + 8
let trailer_len = 4

type error =
  | Truncated of string
  | Bad_magic
  | Bad_kind of { expected : string; got : string }
  | Bad_version of int
  | Crc_mismatch
  | Malformed of string
  | Io of string

let error_to_string = function
  | Truncated what -> "truncated frame: " ^ what
  | Bad_magic -> "bad magic: not a tvs_store frame"
  | Bad_kind { expected; got } ->
      Printf.sprintf "frame kind mismatch: expected %S, got %S" expected got
  | Bad_version v ->
      Printf.sprintf "unsupported schema version %d (this build reads version %d)" v
        schema_version
  | Crc_mismatch -> "CRC mismatch: frame is corrupt"
  | Malformed msg -> "malformed payload: " ^ msg
  | Io msg -> msg

let check_kind kind =
  if String.length kind <> 4 then invalid_arg "Codec: frame kind must be 4 bytes"

let le32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

let encode ~kind f =
  check_kind kind;
  let pw = Wire.writer () in
  f pw;
  let payload = Wire.contents pw in
  let buf = Buffer.create (header_len + String.length payload + trailer_len) in
  Buffer.add_string buf magic;
  Buffer.add_string buf kind;
  Buffer.add_char buf (Char.chr schema_version);
  let plen = String.length payload in
  for i = 0 to 7 do
    Buffer.add_char buf (Char.unsafe_chr ((plen lsr (8 * i)) land 0xFF))
  done;
  Buffer.add_string buf payload;
  let crc = Crc32.digest (Buffer.contents buf) in
  le32 buf crc;
  Buffer.contents buf

let read_le32 s pos =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let decode_frame ~kind s =
  check_kind kind;
  let len = String.length s in
  if len < header_len + trailer_len then
    Error (Truncated (Printf.sprintf "%d bytes, need at least %d" len (header_len + trailer_len)))
  else if String.sub s 0 4 <> magic then Error Bad_magic
  else
    let got_kind = String.sub s 4 4 in
    if got_kind <> kind then Error (Bad_kind { expected = kind; got = got_kind })
    else
      let version = Char.code s.[8] in
      if version <> schema_version then Error (Bad_version version)
      else
        let plen64 =
          let v = ref 0L in
          for i = 7 downto 0 do
            v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[9 + i]))
          done;
          !v
        in
        if Int64.compare plen64 0L < 0 || Int64.compare plen64 (Int64.of_int max_int) > 0 then
          Error (Malformed "payload length out of range")
        else
          let plen = Int64.to_int plen64 in
          if len < header_len + plen + trailer_len then
            Error
              (Truncated
                 (Printf.sprintf "payload claims %d bytes, only %d present" plen
                    (len - header_len - trailer_len)))
          else if len > header_len + plen + trailer_len then
            Error (Malformed "trailing bytes after frame")
          else
            let stored = read_le32 s (header_len + plen) in
            let computed = Crc32.digest (String.sub s 0 (header_len + plen)) in
            if stored <> computed then Error Crc_mismatch
            else Ok (Wire.reader ~pos:header_len ~len:plen s)

let decode ~kind s f =
  match decode_frame ~kind s with
  | Error _ as e -> e
  | Ok r -> (
      try
        let v = f r in
        if Wire.at_end r then Ok v else Error (Malformed "payload has trailing bytes")
      with
      | Wire.Error msg -> Error (Malformed msg)
      | Invalid_argument msg -> Error (Malformed msg))

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let ensure_dir ~flag path =
  if String.length path = 0 then Error (flag ^ " needs a non-empty directory name")
  else if Sys.file_exists path then
    if Sys.is_directory path then Ok ()
    else Error (Printf.sprintf "%s %S exists and is not a directory" flag path)
  else
    match mkdir_p path with
    | () -> Ok ()
    | exception Unix.Unix_error (err, _, arg) ->
        Error (Printf.sprintf "%s %S: cannot create %S: %s" flag path arg (Unix.error_message err))

let write_file_atomic path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* The rename can also fail (permissions, a concurrent reader's directory
     scan on some platforms, target replaced by a directory); never leave
     the temp file behind in that case either. *)
  try Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let to_file ~kind path f = write_file_atomic path (encode ~kind f)

let of_file ~kind path f =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Io msg)
  | exception End_of_file -> Error (Io (path ^ ": unreadable"))
  | data -> decode ~kind data f
