(* The persistence layer: frame codec (incl. crash-window damage), content
   digests, checkpoint round-trips, in-process resume equivalence, and the
   content-addressed cache. *)

module Circuit = Tvs_netlist.Circuit
module Bench_format = Tvs_netlist.Bench_format
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Xor_scheme = Tvs_scan.Xor_scheme
module Baseline = Tvs_core.Baseline
module Engine = Tvs_core.Engine
module Policy = Tvs_core.Policy
module Wire = Tvs_util.Wire
module Rng = Tvs_util.Rng
module Codec = Tvs_store.Codec
module Digest = Tvs_store.Digest
module Checkpoint = Tvs_store.Checkpoint
module Cache = Tvs_store.Cache

let s27 = Tvs_circuits.S27.circuit ()

let tiny i =
  Tvs_circuits.Synth.generate
    {
      Tvs_circuits.Profiles.name = Printf.sprintf "store-%d" i;
      npi = 3 + (i mod 3);
      npo = 2;
      nff = 5 + (i mod 4);
      ngates = 30 + (5 * i);
      style = Tvs_circuits.Profiles.Balanced;
    }

(* --- frame codec ---------------------------------------------------- *)

let sample_frame () =
  Codec.encode ~kind:"TEST" (fun w ->
      Wire.write_varint w 12345;
      Wire.write_string w "hello";
      Wire.write_bool_array w [| true; false; true; true; false; true; false; false; true |])

let decode_sample s =
  Codec.decode ~kind:"TEST" s (fun r ->
      let n = Wire.read_varint r in
      let msg = Wire.read_string r in
      let bits = Wire.read_bool_array r in
      (n, msg, bits))

let test_frame_roundtrip () =
  match decode_sample (sample_frame ()) with
  | Ok (n, msg, bits) ->
      Alcotest.(check int) "varint" 12345 n;
      Alcotest.(check string) "string" "hello" msg;
      Alcotest.(check int) "bits" 9 (Array.length bits);
      Alcotest.(check bool) "bit 3" true bits.(3)
  | Error e -> Alcotest.failf "frame did not round-trip: %s" (Codec.error_to_string e)

let test_frame_kind_and_magic () =
  let s = sample_frame () in
  (match Codec.decode ~kind:"OTHR" s (fun _ -> ()) with
  | Error (Codec.Bad_kind { expected = "OTHR"; got = "TEST" }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok () -> Alcotest.fail "kind mismatch accepted");
  let bad_magic = "XYZ\x02" ^ String.sub s 4 (String.length s - 4) in
  match decode_sample bad_magic with
  | Error Codec.Bad_magic -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "bad magic accepted"

let test_frame_bad_version () =
  let s = Bytes.of_string (sample_frame ()) in
  Bytes.set s 8 (Char.chr 99);
  match decode_sample (Bytes.to_string s) with
  | Error (Codec.Bad_version 99) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "future schema version accepted"

(* Every possible truncation surfaces as a typed error — never an exception,
   never a bogus [Ok]. *)
let test_frame_truncation () =
  let s = sample_frame () in
  for len = 0 to String.length s - 1 do
    match decode_sample (String.sub s 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error _ -> ()
    | exception e ->
        Alcotest.failf "truncation to %d bytes raised %s" len (Printexc.to_string e)
  done

(* Every single-bit flip anywhere in the frame is detected. *)
let test_frame_bit_flips () =
  let s = sample_frame () in
  for pos = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code s.[pos] lxor (1 lsl bit)));
      match decode_sample (Bytes.to_string b) with
      | Ok _ -> Alcotest.failf "flip at byte %d bit %d undetected" pos bit
      | Error _ -> ()
      | exception e ->
          Alcotest.failf "flip at byte %d bit %d raised %s" pos bit (Printexc.to_string e)
    done
  done

let test_frame_trailing_garbage () =
  match decode_sample (sample_frame () ^ "x") with
  | Error (Codec.Malformed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* --- domain codec instances ----------------------------------------- *)

let encode_to_string f =
  let w = Wire.writer () in
  f w;
  Wire.contents w

let test_circuit_codec_roundtrip () =
  List.iter
    (fun c ->
      let bytes = encode_to_string (fun w -> Circuit.encode w c) in
      let c' =
        match Wire.decode bytes Circuit.decode with
        | Ok c' -> c'
        | Error msg -> Alcotest.failf "%s: decode failed: %s" (Circuit.name c) msg
      in
      Alcotest.(check string) "name" (Circuit.name c) (Circuit.name c');
      Alcotest.(check int) "nets" (Circuit.num_nets c) (Circuit.num_nets c');
      (* Net numbering is preserved exactly, so both the canonical encoding
         and the .bench rendering must agree byte for byte. *)
      Alcotest.(check string) "re-encoding" bytes
        (encode_to_string (fun w -> Circuit.encode w c'));
      Alcotest.(check string) "bench text" (Bench_format.to_string c)
        (Bench_format.to_string c'))
    [ s27; tiny 0; tiny 3; Tvs_circuits.Fig1.circuit () ]

(* --- digests --------------------------------------------------------- *)

let test_digest_circuit () =
  let d1 = Digest.circuit s27 in
  let d2 = Digest.circuit (Tvs_circuits.S27.circuit ()) in
  Alcotest.(check bool) "same construction, same digest" true (Digest.equal d1 d2);
  Alcotest.(check bool) "different circuit, different digest" false
    (Digest.equal d1 (Digest.circuit (tiny 0)));
  Alcotest.(check int) "hex width" 16 (String.length (Digest.to_hex d1))

let test_digest_config () =
  let base = Engine.default_config ~chain_len:9 in
  let d = Digest.config ~config:base ~label:"a" in
  Alcotest.(check bool) "preflight excluded" true
    (Digest.equal d (Digest.config ~config:{ base with Engine.preflight = true } ~label:"a"));
  Alcotest.(check bool) "label included" false
    (Digest.equal d (Digest.config ~config:base ~label:"b"));
  Alcotest.(check bool) "scheme included" false
    (Digest.equal d
       (Digest.config ~config:{ base with Engine.scheme = Xor_scheme.Vxor } ~label:"a"))

(* --- checkpoint / resume --------------------------------------------- *)

let prep () =
  let faults = Fault_gen.collapsed s27 in
  let ctx = Podem.create s27 in
  let baseline = Baseline.run ~rng:(Rng.of_string "core:baseline") ctx ~faults in
  (ctx, Baseline.testable_faults baseline faults, baseline)

let checkpoint_of snapshot =
  {
    Checkpoint.spec = "s27";
    scale = 1.0;
    scheme = Xor_scheme.Nxor;
    selection = Policy.Most_faults 5;
    shift = None;
    label = "store:eng";
    circuit_digest = Digest.circuit s27;
    config_digest = Digest.of_string "test-config";
    snapshot;
  }

(* An interrupted run, resumed from a frame-round-tripped snapshot, must
   reproduce the uninterrupted run's result exactly — including the RNG-
   dependent parts (candidate selection) and the stitched stimuli. *)
let test_resume_equals_uninterrupted () =
  let ctx, faults, baseline = prep () in
  let snaps = ref [] in
  let reference =
    Engine.run ~fallback:baseline.Baseline.vectors
      ~checkpoint:(1, fun s -> snaps := s :: !snaps)
      ~rng:(Rng.of_string "store:eng") ctx ~faults
  in
  let snaps = List.rev !snaps in
  Alcotest.(check bool) "run produced snapshots" true (snaps <> []);
  List.iteri
    (fun i snap ->
      (* Round-trip each snapshot through the on-disk form first: resume
         must work from the decoded bytes, not the in-memory object. *)
      let bytes =
        Codec.encode ~kind:Checkpoint.kind (fun w -> Checkpoint.encode w (checkpoint_of snap))
      in
      let ck =
        match Codec.decode ~kind:Checkpoint.kind bytes Checkpoint.decode with
        | Ok ck -> ck
        | Error e -> Alcotest.failf "checkpoint decode failed: %s" (Codec.error_to_string e)
      in
      let ctx2, faults2, baseline2 = prep () in
      let resumed =
        Engine.run ~fallback:baseline2.Baseline.vectors ~resume:ck.Checkpoint.snapshot
          ~rng:(Rng.of_string "store:eng") ctx2 ~faults:faults2
      in
      Alcotest.(check bool)
        (Printf.sprintf "resume from snapshot %d reproduces the reference" i)
        true (resumed = reference))
    snaps

let test_checkpoint_file_roundtrip_and_corruption () =
  let ctx, faults, baseline = prep () in
  let snaps = ref [] in
  ignore
    (Engine.run ~fallback:baseline.Baseline.vectors
       ~checkpoint:(1, fun s -> snaps := s :: !snaps)
       ~rng:(Rng.of_string "store:eng") ctx ~faults);
  let snap = List.hd !snaps in
  let path = Filename.temp_file "tvs-ck" ".tvs" in
  Checkpoint.save path (checkpoint_of snap);
  (match Checkpoint.load path with
  | Ok ck ->
      Alcotest.(check string) "spec survives" "s27" ck.Checkpoint.spec;
      Alcotest.(check bool) "digest survives" true
        (Digest.equal ck.Checkpoint.circuit_digest (Digest.circuit s27));
      Alcotest.(check bool) "snapshot survives" true (ck.Checkpoint.snapshot = snap)
  | Error e -> Alcotest.failf "load failed: %s" (Codec.error_to_string e));
  let bytes =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* Torn write: only half the frame made it to disk. *)
  let oc = open_out_bin path in
  output_string oc (String.sub bytes 0 (String.length bytes / 2));
  close_out oc;
  (match Checkpoint.load path with
  | Error (Codec.Truncated _) -> ()
  | Error e -> Alcotest.failf "wrong truncation error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "half-written checkpoint accepted");
  (* Bit rot in the payload. *)
  let flipped = Bytes.of_string bytes in
  let mid = String.length bytes / 2 in
  Bytes.set flipped mid (Char.chr (Char.code bytes.[mid] lxor 0x10));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  (match Checkpoint.load path with
  | Error Codec.Crc_mismatch -> ()
  | Error e -> Alcotest.failf "wrong corruption error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "bit-flipped checkpoint accepted");
  Sys.remove path;
  match Checkpoint.load path with
  | Error (Codec.Io _) -> ()
  | Error e -> Alcotest.failf "wrong missing-file error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file accepted"

(* A checkpoint written at store schema 1 (by [tvs stitch s27 --checkpoint F
   --checkpoint-every 1]; its snapshot still carried a per-cycle log) is
   refused by its version byte, never decoded against today's layout. *)
let test_checkpoint_schema1_refused () =
  match Checkpoint.load "golden/ckpt_s27_schema1.tvs" with
  | Error (Codec.Bad_version 1) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "schema-1 checkpoint accepted"

(* --- cache ----------------------------------------------------------- *)

let fresh_cache_dir () =
  let path = Filename.temp_file "tvs-cache" "" in
  Sys.remove path;
  match Cache.open_dir path with
  | Ok c -> c
  | Error msg -> Alcotest.failf "open_dir failed: %s" msg

let test_cache_hit_miss_and_key_sensitivity () =
  let c = fresh_cache_dir () in
  let key = Digest.of_string "payload-key" in
  let h0 = Cache.hits () and m0 = Cache.misses () in
  Alcotest.(check bool) "cold lookup misses" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = None);
  Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 42);
  Alcotest.(check bool) "warm lookup hits" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = Some 42);
  Alcotest.(check int) "one hit counted" (h0 + 1) (Cache.hits ());
  Alcotest.(check int) "one miss counted" (m0 + 1) (Cache.misses ());
  (* A different digest or kind is a different entry entirely. *)
  Alcotest.(check bool) "other key misses" true
    (Cache.find c ~kind:"TEST" ~key:(Digest.of_string "other-key") Wire.read_varint = None);
  Alcotest.(check bool) "other kind misses" true
    (Cache.find c ~kind:"OTHR" ~key Wire.read_varint = None);
  (* [memo] against the installed cache: absent, every call computes, no
     key is asked for and the cache never answers; installed, the value is
     computed once, then decoded, and only the decoded call reads [true]. *)
  let computed = ref 0 and keyed = ref 0 in
  let memo () =
    Cache.memo ~kind:"MEMO"
      ~key:(fun () ->
        incr keyed;
        Digest.of_string "memo-key")
      Wire.write_varint Wire.read_varint
      (fun () ->
        incr computed;
        5)
  in
  let twice () =
    let first = memo () in
    let second = memo () in
    [ first; second ]
  in
  Cache.install None;
  Alcotest.(check (list (pair int bool))) "no cache: computed, not answered"
    [ (5, false); (5, false) ]
    (twice ());
  Alcotest.(check (pair int int)) "no cache: computed twice, never keyed" (2, 0)
    (!computed, !keyed);
  Cache.install (Some c);
  Fun.protect ~finally:(fun () -> Cache.install None) @@ fun () ->
  computed := 0;
  Alcotest.(check (list (pair int bool))) "cache: a miss, then the cache's answer"
    [ (5, false); (5, true) ]
    (twice ());
  Alcotest.(check int) "cache: computed once" 1 !computed;
  Alcotest.(check bool) "cache: stored under its kind" true
    (Cache.find c ~kind:"MEMO" ~key:(Digest.of_string "memo-key") Wire.read_varint = Some 5)

let test_cache_corrupt_entry_evicted () =
  let c = fresh_cache_dir () in
  let key = Digest.of_string "corrupt" in
  Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 7);
  let path = Cache.entry_path c ~kind:"TEST" ~key in
  let oc = open_out_bin path in
  output_string oc "garbage, not a frame";
  close_out oc;
  let e0 = Cache.evictions () in
  Alcotest.(check bool) "corrupt entry reads as a miss" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = None);
  Alcotest.(check int) "entry evicted" (e0 + 1) (Cache.evictions ());
  Alcotest.(check bool) "entry file deleted" false (Sys.file_exists path);
  (* The slot is usable again after eviction. *)
  Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 8);
  Alcotest.(check bool) "restored entry hits" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = Some 8);
  (* Through [memo], a damaged entry is evicted, recomputed and stored. *)
  let oc = open_out_bin path in
  output_string oc "garbage again";
  close_out oc;
  Cache.install (Some c);
  Fun.protect ~finally:(fun () -> Cache.install None) @@ fun () ->
  let e0 = Cache.evictions () and computed = ref 0 in
  let v =
    Cache.memo ~kind:"TEST" ~key:(fun () -> key) Wire.write_varint Wire.read_varint (fun () ->
        incr computed;
        9)
  in
  Alcotest.(check (pair (pair int bool) int)) "memo recomputes the damaged entry, not answered"
    ((9, false), 1) (v, !computed);
  Alcotest.(check int) "memo evicted it" (e0 + 1) (Cache.evictions ());
  Alcotest.(check bool) "memo stored the recomputed value" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = Some 9)

(* Regression: a corrupt entry read twice evicts exactly once — the second
   read takes the missing-file path (one more miss, no double eviction),
   which is also what a reader that lost the unlink race to a concurrent
   process observes. And no [write_file_atomic] temp file may survive in the
   cache directory, even when the final rename fails. *)
let test_cache_corrupt_entry_read_twice () =
  let c = fresh_cache_dir () in
  let key = Digest.of_string "corrupt-twice" in
  Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 7);
  let path = Cache.entry_path c ~kind:"TEST" ~key in
  let oc = open_out_bin path in
  output_string oc "seeded corruption";
  close_out oc;
  let e0 = Cache.evictions () and m0 = Cache.misses () in
  Alcotest.(check bool) "first read misses" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = None);
  Alcotest.(check bool) "second read misses" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = None);
  Alcotest.(check int) "exactly one eviction" (e0 + 1) (Cache.evictions ());
  Alcotest.(check int) "both reads count as misses" (m0 + 2) (Cache.misses ());
  (* write_file_atomic temp names look like "<entry>.tmp.<pid>". *)
  let is_tmp f =
    let needle = ".tmp." in
    let nl = String.length needle and fl = String.length f in
    let rec go i = i + nl <= fl && (String.sub f i nl = needle || go (i + 1)) in
    go 0
  in
  let leftovers = List.filter is_tmp (Array.to_list (Sys.readdir (Cache.dir c))) in
  Alcotest.(check (list string)) "no temp files left behind" [] leftovers;
  (* Rename failure (here: the entry path is suddenly a directory) must
     propagate — and still not leave the temp file behind. *)
  Unix.mkdir path 0o755;
  (match Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 9) with
  | () -> Alcotest.fail "store into a directory-shadowed entry succeeded"
  | exception Sys_error _ -> ());
  let leftovers = List.filter is_tmp (Array.to_list (Sys.readdir (Cache.dir c))) in
  Alcotest.(check (list string)) "no temp files after failed rename" [] leftovers

(* --- cross-process contention ---------------------------------------- *)

(* Children must not replay the parent's buffered output or at_exit hooks
   (alcotest owns both), so they leave through Unix._exit with a bare
   status code. *)
let fork_child f =
  match Unix.fork () with
  | 0 -> (
      match f () with code -> Unix._exit code | exception _ -> Unix._exit 99)
  | pid -> pid

let wait_status pid =
  match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> 98

let is_tmp_file f =
  let needle = ".tmp." in
  let nl = String.length needle and fl = String.length f in
  let rec go i = i + nl <= fl && (String.sub f i nl = needle || go (i + 1)) in
  go 0

(* The serve daemon and any number of one-shot CLI runs share one cache
   directory, so store/find must be safe across processes, not just across
   domains: a reader racing a writer on the same key sees either absence or
   one complete value — never a torn frame (the CRC turns a torn read into
   an eviction, and the entry was stored moments ago) — and the temp+rename
   protocol leaves no .tmp.<pid> litter behind. *)
let test_cache_cross_process_contention () =
  let c = fresh_cache_dir () in
  let key = Digest.of_string "contended-key" in
  let rounds = 300 in
  let writer =
    fork_child (fun () ->
        for _ = 1 to rounds do
          Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 777)
        done;
        0)
  in
  let reader =
    fork_child (fun () ->
        (* The fork inherits the parent's counter shards, so only the delta
           accumulated by this child's own reads matters. *)
        let e0 = Cache.evictions () in
        let bad = ref 0 in
        for _ = 1 to rounds do
          match Cache.find c ~kind:"TEST" ~key Wire.read_varint with
          | None | Some 777 -> ()
          | Some _ -> incr bad
        done;
        if !bad > 0 then 1 else if Cache.evictions () > e0 then 2 else 0)
  in
  Alcotest.(check int) "writer exits cleanly" 0 (wait_status writer);
  Alcotest.(check int) "reader saw only absent-or-complete values" 0 (wait_status reader);
  let leftovers = List.filter is_tmp_file (Array.to_list (Sys.readdir (Cache.dir c))) in
  Alcotest.(check (list string)) "no temp files leaked" [] leftovers;
  Alcotest.(check bool) "final entry intact" true
    (Cache.find c ~kind:"TEST" ~key Wire.read_varint = Some 777)

(* Two processes racing to evict the same corrupt entry: unlink is atomic,
   so exactly one of them may count the eviction — the loser takes the
   missing-file miss path. The children report their local eviction delta
   through their exit status. *)
let test_cache_cross_process_eviction_once () =
  let c = fresh_cache_dir () in
  let key = Digest.of_string "races-to-evict" in
  Cache.store c ~kind:"TEST" ~key (fun w -> Wire.write_varint w 7);
  let path = Cache.entry_path c ~kind:"TEST" ~key in
  let oc = open_out_bin path in
  output_string oc "seeded corruption";
  close_out oc;
  let racer () =
    fork_child (fun () ->
        let e0 = Cache.evictions () in
        if Cache.find c ~kind:"TEST" ~key Wire.read_varint <> None then 97
        else Cache.evictions () - e0)
  in
  let a = racer () and b = racer () in
  let ea = wait_status a and eb = wait_status b in
  Alcotest.(check bool) "both read a miss" true (ea < 90 && eb < 90);
  Alcotest.(check int) "eviction counted exactly once across processes" 1 (ea + eb);
  Alcotest.(check bool) "entry gone" false (Sys.file_exists path)

let test_cache_open_dir_rejects_file () =
  let path = Filename.temp_file "tvs-notdir" "" in
  (match Cache.open_dir path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opened a plain file as a cache directory");
  Sys.remove path

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "kind and magic checked" `Quick test_frame_kind_and_magic;
          Alcotest.test_case "future version rejected" `Quick test_frame_bad_version;
          Alcotest.test_case "every truncation detected" `Quick test_frame_truncation;
          Alcotest.test_case "every bit flip detected" `Quick test_frame_bit_flips;
          Alcotest.test_case "trailing garbage rejected" `Quick test_frame_trailing_garbage;
          Alcotest.test_case "circuit codec round-trip" `Quick test_circuit_codec_roundtrip;
        ] );
      ( "digest",
        [
          Alcotest.test_case "circuit digests" `Quick test_digest_circuit;
          Alcotest.test_case "config digests" `Quick test_digest_config;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume equals uninterrupted" `Quick test_resume_equals_uninterrupted;
          Alcotest.test_case "file round-trip and corruption" `Quick
            test_checkpoint_file_roundtrip_and_corruption;
          Alcotest.test_case "schema-1 checkpoint refused" `Quick test_checkpoint_schema1_refused;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit, miss and key sensitivity" `Quick
            test_cache_hit_miss_and_key_sensitivity;
          Alcotest.test_case "corrupt entry evicted" `Quick test_cache_corrupt_entry_evicted;
          Alcotest.test_case "corrupt entry read twice evicts once" `Quick
            test_cache_corrupt_entry_read_twice;
          Alcotest.test_case "cross-process store/find contention" `Quick
            test_cache_cross_process_contention;
          Alcotest.test_case "cross-process eviction counted once" `Quick
            test_cache_cross_process_eviction_once;
          Alcotest.test_case "open_dir rejects a file" `Quick test_cache_open_dir_rejects_file;
        ] );
    ]
