(* Validation and cmdliner terms shared between the two CLIs (bin/ and
   bench/) and the test suite. Keeping it here — rather than inline in
   bin/main.ml — gives both CLIs one argv layer and lets the bad-input
   paths be unit-tested without spawning the executable. *)

open Cmdliner
module Profiles = Tvs_circuits.Profiles

let profile_names = List.map (fun p -> p.Profiles.name) Profiles.all

let check_spec spec =
  match spec with
  | "fig1" | "s27" -> Ok spec
  | name when List.mem name profile_names -> Ok spec
  | path when Sys.file_exists path -> Ok spec
  | _ ->
      Error
        (Printf.sprintf
           "unknown circuit %S: not a profile (%s), not s27 or fig1, and no such file" spec
           (String.concat ", " profile_names))

let check_profile name =
  if List.mem name profile_names then Ok name
  else
    Error
      (Printf.sprintf "unknown profile %S (known profiles: %s)" name
         (String.concat ", " profile_names))

let load_circuit ?(scale = 1.0) ?format spec =
  match check_spec spec with
  | Error _ as e -> e
  | Ok _ -> (
      match spec with
      | "fig1" -> Ok (Tvs_circuits.Fig1.circuit ())
      | "s27" -> Ok (Tvs_circuits.S27.circuit ())
      | name when List.mem name profile_names ->
          Ok (Tvs_circuits.Synth.generate (Profiles.scale (Profiles.find name) scale))
      | path -> (
          try Ok (Tvs_verilog.Loader.load_file ?format path)
          with
          | Failure msg | Sys_error msg -> Error (Printf.sprintf "cannot load %S: %s" path msg)
          | Tvs_netlist.Bench_format.Parse_error (line, msg) ->
              (* the filename makes multi-file flows (serve, xcheck)
                 debuggable; the exception payload itself stays (line, msg) *)
              Error (Printf.sprintf "%s:%d: %s" path line msg)))

(* The scheme/selection vocabularies are shared verbatim between the [tvs]
   CLI flags and the serve protocol's job fields, so a job submitted over
   the socket accepts exactly the strings the command line does. *)
let parse_scheme s =
  match Tvs_scan.Xor_scheme.of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown scheme %S" s)

let parse_selection = function
  | "random" -> Ok Tvs_core.Policy.Random_order
  | "hardness" -> Ok Tvs_core.Policy.Hardness_order
  | "most-faults" -> Ok (Tvs_core.Policy.Most_faults 5)
  | "weighted" -> Ok (Tvs_core.Policy.Weighted 5)
  | s -> Error (Printf.sprintf "unknown selection %S" s)

let check_positive name n =
  if n >= 1 then Ok n else Error (Printf.sprintf "%s must be at least 1 (got %d)" name n)

let check_non_negative name n =
  if n >= 0 then Ok n else Error (Printf.sprintf "%s must be at least 0 (got %d)" name n)

let check_shift = check_positive "shift"

let check_port n =
  if n >= 1 && n <= 65535 then Ok n
  else Error (Printf.sprintf "--port must be in 1..65535 (got %d)" n)

let parse_format = function
  | "auto" -> Ok None
  | s -> (
      match Tvs_verilog.Loader.format_of_name s with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "unknown format %S (expected auto, bench or verilog)" s))

(* Inline netlists are named by the content digest of their raw text, so an
   identical text always builds a digest-identical circuit (the serve dedupe
   key), and a copy persisted to [inline-<hex>.<ext>] parses back — via the
   file's basename — to the same circuit name. The digest covers the raw
   text only: the resolved format is a function of the text (or of an
   explicit field that the job digest covers separately). *)
let inline_file_name ?format text =
  let fmt = match format with Some f -> f | None -> Tvs_verilog.Loader.detect text in
  "inline-"
  ^ Tvs_store.Digest.to_hex (Tvs_store.Digest.of_string text)
  ^ Tvs_verilog.Loader.extension fmt

(* The file name carries everything the parse needs: its stem is the
   circuit name, its extension the resolved format. *)
let parse_inline ~file_name text =
  match
    Tvs_verilog.Loader.parse_string
      ~format:(Tvs_verilog.Loader.detect ~path:file_name text)
      ~name:(Filename.remove_extension file_name) text
  with
  | c -> Ok c
  | exception Tvs_netlist.Bench_format.Parse_error (line, msg) ->
      Error (Printf.sprintf "inline netlist, line %d: %s" line msg)
  | exception Failure msg -> Error (Printf.sprintf "inline netlist: %s" msg)

let inline_circuit ?format text = parse_inline ~file_name:(inline_file_name ?format text) text

(* "scan_en=0,tpi_ctl_x=1": the --scan-map / serve "scan_map" vocabulary.
   Whitespace around entries is tolerated; empty entries (trailing commas)
   are skipped so shell-built lists compose. *)
let parse_ties s =
  let entries =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match String.index_opt p '=' with
        | None -> Error (Printf.sprintf "bad tie %S (want name=0 or name=1)" p)
        | Some i -> (
            let name = String.trim (String.sub p 0 i) in
            let value = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
            if name = "" then Error (Printf.sprintf "bad tie %S: empty pin name" p)
            else
              match value with
              | "0" -> go ((name, false) :: acc) rest
              | "1" -> go ((name, true) :: acc) rest
              | _ -> Error (Printf.sprintf "bad tie %S: value must be 0 or 1" p)))
  in
  go [] entries

let check_table n =
  if n >= 1 && n <= 5 then Ok n
  else Error (Printf.sprintf "no table %d in the paper (tables are numbered 1-5)" n)

let check_jobs = check_positive "--jobs"

let check_scale f =
  if f > 0.0 && f <= 1.0 then Ok f
  else
    Error
      (Printf.sprintf
         "--scale must be in (0, 1]: got %g (1.0 = full-size profiles; smaller values shrink them)"
         f)

let check_out_file ~flag path =
  if String.length path = 0 then Error (Printf.sprintf "%s needs a non-empty file name" flag)
  else if Sys.file_exists path && Sys.is_directory path then
    Error (Printf.sprintf "%s %S is a directory" flag path)
  else
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok path
    else Error (Printf.sprintf "%s %S: directory %S does not exist" flag path dir)

let check_checkpoint_every = check_positive "--checkpoint-every"

let check_resume_file path =
  if not (Sys.file_exists path) then Error (Printf.sprintf "no checkpoint file %S" path)
  else if Sys.is_directory path then Error (Printf.sprintf "checkpoint %S is a directory" path)
  else Ok path

(* --- cmdliner terms --------------------------------------------------- *)

let conv ~docv check = Arg.conv' ~docv (check, Format.pp_print_string)

let int_conv ~docv check =
  Arg.conv' ~docv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n -> check n
        | None -> Error (Printf.sprintf "%S is not an integer" s)),
      Format.pp_print_int )

let out_file ~flag = conv ~docv:"FILE" (check_out_file ~flag)

let profile = conv ~docv:"NAME" check_profile

(* Unlike [Arg.list], which skips empty entries, every entry must name a
   profile: "s444,,s526" and "" are errors. *)
let profiles =
  let rec check acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> Result.bind (check_profile name) (fun n -> check (n :: acc) rest)
  in
  Arg.conv' ~docv:"LIST"
    ( (fun s -> check [] (String.split_on_char ',' s)),
      fun fmt l -> Format.pp_print_string fmt (String.concat "," l) )

let scale =
  let doc =
    "Linear scale factor in (0, 1] applied to profile circuits. Omitted: full size, except for \
     the paper tables, which use per-circuit defaults."
  in
  let scale_conv =
    Arg.conv' ~docv:"F"
      ( (fun s ->
          match float_of_string_opt s with
          | Some f -> check_scale f
          | None -> Error (Printf.sprintf "%S is not a number" s)),
        Format.pp_print_float )
  in
  Arg.(value & opt (some scale_conv) None & info [ "scale" ] ~docv:"F" ~doc)

(* --jobs is the one scheduling knob: it installs the process-wide default
   that every domain pool created without an explicit width picks up, and
   results are bit-identical for every value. The environment variable goes
   through the same validator, so a malformed one is a usage error rather
   than a silent fallback. *)
let jobs =
  let doc =
    "Number of domains for fault simulation (default: available cores). Results are identical \
     for every value; only wall-clock time changes."
  in
  Term.(
    const (Option.iter Tvs_util.Pool.set_default_jobs)
    $ Arg.(
        value
        & opt (some (int_conv ~docv:"N" check_jobs)) None
        & info [ "jobs"; "j" ] ~env:(Cmd.Env.info "TVS_JOBS") ~docv:"N" ~doc))

(* The handle is installed process-wide ([Cache.install]) so every cached
   result a command computes sees it. *)
let cache =
  let doc =
    "Directory for the content-addressed result cache (created if missing). Experiment results \
     are keyed by circuit and configuration digests plus the store schema version, so a stale \
     entry can never be replayed."
  in
  let install = function
    | None -> Ok ()
    | Some dir ->
        Result.map (fun c -> Tvs_store.Cache.install (Some c)) (Tvs_store.Cache.open_dir dir)
  in
  Term.(
    term_result' ~usage:false
      (const install $ Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)))
