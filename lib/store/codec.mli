(** Versioned binary framing for everything [tvs_store] puts on disk.

    A frame is:

    {v
      "TVS\x01"           magic (4 bytes)
      kind                4 ASCII bytes naming the payload ("CKPT", "FSIM", ...)
      schema version      1 byte
      payload length      8 bytes, little-endian
      payload             Wire-encoded body
      CRC-32              4 bytes, little-endian, over every preceding byte
    v}

    The CRC trailer turns crash-window damage (truncation, bit flips from a
    torn write) into a typed {!error} instead of a garbage decode, and the
    schema byte keeps old files from being misread by newer code. Files are
    written atomically (temp file in the same directory, then [rename]), so a
    reader never observes a half-written frame under POSIX semantics. *)

type wire_writer := Tvs_util.Wire.writer
type wire_reader := Tvs_util.Wire.reader

val schema_version : int
(** Bump on any incompatible change to a payload encoding. *)

type error =
  | Truncated of string  (** too short for a frame, or payload length lies *)
  | Bad_magic
  | Bad_kind of { expected : string; got : string }
  | Bad_version of int  (** the schema byte found in the frame *)
  | Crc_mismatch
  | Malformed of string  (** frame intact, payload undecodable *)
  | Io of string  (** file missing or unreadable *)

val error_to_string : error -> string

val encode : kind:string -> (wire_writer -> unit) -> string
(** Build a complete frame around the payload [f] writes. [kind] must be
    exactly 4 bytes; raises [Invalid_argument] otherwise. *)

val decode : kind:string -> string -> (wire_reader -> 'a) -> ('a, error) result
(** Verify framing (magic, kind, version, length, CRC) and run the payload
    decoder. Wire errors and [Invalid_argument] from structural validation
    inside the decoder surface as [Malformed] — never a bare exception. *)

val ensure_dir : flag:string -> string -> (unit, string) result
(** Create the directory (and parents) if needed. [Error], naming the
    command-line [flag] the path came from, when the path is empty, exists
    but is not a directory, or cannot be created (a parent is a regular
    file, permissions). *)

val write_file_atomic : string -> string -> unit
(** [write_file_atomic path data]: write to [path ^ ".tmp.<pid>"] in the same
    directory, then rename over [path]. Raises [Sys_error] on I/O failure. *)

val to_file : kind:string -> string -> (wire_writer -> unit) -> unit
(** {!encode} then {!write_file_atomic}. *)

val of_file : kind:string -> string -> (wire_reader -> 'a) -> ('a, error) result
(** Read the whole file ([Io] if absent/unreadable) then {!decode}. *)
