(* Binary wire primitives shared by every codec instance (Circuit, the
   engine checkpoint, digests and the cached results of the harness, lint,
   TPI and CEC layers). Writers append to a Buffer; readers are
   bounds-checked cursors over a string and raise the local [Error]
   exception, which [decode] converts to a result so no half-read ever
   escapes as a bare [Failure]. *)

type writer = Buffer.t

let writer ?(size = 256) () = Buffer.create size

let contents = Buffer.contents

let write_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Wire.write_u8: out of range";
  Buffer.add_char b (Char.unsafe_chr v)

let write_bool b v = write_u8 b (if v then 1 else 0)

(* Unsigned LEB128. Lengths, net ids, counters: always non-negative. *)
let write_varint b v =
  if v < 0 then invalid_arg "Wire.write_varint: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  go v

let write_i64 b v =
  for i = 0 to 7 do
    Buffer.add_char b (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let write_f64 b v = write_i64 b (Int64.bits_of_float v)

let write_string b s =
  write_varint b (String.length s);
  Buffer.add_string b s

(* Bit-packed, LSB-first within each byte: the canonical form is independent
   of the host word size. *)
let write_bool_array b arr =
  let n = Array.length arr in
  write_varint b n;
  let byte = ref 0 in
  for i = 0 to n - 1 do
    if arr.(i) then byte := !byte lor (1 lsl (i land 7));
    if i land 7 = 7 then begin
      Buffer.add_char b (Char.unsafe_chr !byte);
      byte := 0
    end
  done;
  if n land 7 <> 0 then Buffer.add_char b (Char.unsafe_chr !byte)

let write_option f b = function
  | None -> write_u8 b 0
  | Some v ->
      write_u8 b 1;
      f b v

let write_list f b l =
  write_varint b (List.length l);
  List.iter (f b) l

let write_array f b a =
  write_varint b (Array.length a);
  Array.iter (f b) a

(* --- reading ---------------------------------------------------------- *)

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

type reader = { buf : string; limit : int; mutable pos : int }

let reader ?(pos = 0) ?len buf =
  let limit = match len with Some l -> pos + l | None -> String.length buf in
  if pos < 0 || limit > String.length buf || pos > limit then
    invalid_arg "Wire.reader: range out of bounds";
  { buf; limit; pos }

let remaining r = r.limit - r.pos

let at_end r = r.pos >= r.limit

let read_u8 r =
  if r.pos >= r.limit then error "truncated input: expected a byte at offset %d" r.pos;
  let v = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> error "invalid boolean byte %d at offset %d" v (r.pos - 1)

let read_varint r =
  let rec go shift acc =
    if shift > 62 then error "varint overflows a native int at offset %d" r.pos;
    let byte = read_u8 r in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_i64 r =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (read_u8 r)) (8 * i))
  done;
  !v

let read_f64 r = Int64.float_of_bits (read_i64 r)

let read_string r =
  let n = read_varint r in
  if n > remaining r then error "truncated input: string of %d bytes at offset %d" n r.pos;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let read_bool_array r =
  let n = read_varint r in
  let nbytes = (n + 7) / 8 in
  if nbytes > remaining r then
    error "truncated input: bit array of %d bits at offset %d" n r.pos;
  let arr =
    Array.init n (fun i ->
        Char.code (String.unsafe_get r.buf (r.pos + (i lsr 3))) land (1 lsl (i land 7)) <> 0)
  in
  r.pos <- r.pos + nbytes;
  arr

let read_option f r = match read_u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | v -> error "invalid option tag %d at offset %d" v (r.pos - 1)

let read_list f r =
  let n = read_varint r in
  if n > remaining r then error "truncated input: list of %d elements at offset %d" n r.pos;
  List.init n (fun _ -> f r)

let read_array f r =
  let n = read_varint r in
  if n > remaining r then error "truncated input: array of %d elements at offset %d" n r.pos;
  Array.init n (fun _ -> f r)

let decode buf f =
  try Ok (f (reader buf)) with
  | Error msg -> Result.Error msg
  | Invalid_argument msg -> Result.Error ("malformed input: " ^ msg)
