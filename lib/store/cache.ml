module Metrics = Tvs_obs.Metrics

(* Cache traffic varies run to run (a warm cache hits where a cold one
   misses), so none of these may enter the stable snapshot that CI compares
   across jobs values. *)
let m_hits = Metrics.counter ~stable:false "store.cache.hits"
let m_misses = Metrics.counter ~stable:false "store.cache.misses"
let m_evictions = Metrics.counter ~stable:false "store.cache.evictions"
let m_stores = Metrics.counter ~stable:false "store.cache.stores"

type t = { dir : string }

let open_dir path = Result.map (fun () -> { dir = path }) (Codec.ensure_dir ~flag:"--cache" path)

let dir t = t.dir

let entry_path t ~kind ~key =
  Filename.concat t.dir
    (Printf.sprintf "%s-v%d-%s.tvsc" kind Codec.schema_version (Digest.to_hex key))

(* [None] when the entry is absent or damaged. Torn write, bit rot, or a
   schema change that kept the file name: a damaged entry is dropped so the
   caller recomputes. The eviction counter records files this call actually
   removed — if a concurrent reader already unlinked the entry (the remove
   raises), the eviction was theirs. *)
let find t ~kind ~key decode =
  let path = entry_path t ~kind ~key in
  let v =
    if not (Sys.file_exists path) then None
    else
      match Codec.of_file ~kind path decode with
      | Ok v -> Some v
      | Error _ ->
          (match Sys.remove path with
          | () -> Metrics.incr m_evictions
          | exception Sys_error _ -> ());
          None
  in
  Metrics.incr (if Option.is_some v then m_hits else m_misses);
  v

let store t ~kind ~key encode =
  Codec.to_file ~kind (entry_path t ~kind ~key) encode;
  Metrics.incr m_stores

(* The process-wide handle, set once from [--cache] before any work starts.
   Atomic because pool workers read it (TPI evaluates flows on the pool). *)
let installed : t option Atomic.t = Atomic.make None

let install c = Atomic.set installed c

let memo ~kind ~key encode decode compute =
  match Atomic.get installed with
  | None -> (compute (), false)
  | Some t -> (
      let key = key () in
      match find t ~kind ~key decode with
      | Some v -> (v, true)
      | None ->
          let v = compute () in
          store t ~kind ~key (fun w -> encode w v);
          (v, false))

let hits () = Metrics.counter_value m_hits
let misses () = Metrics.counter_value m_misses
let evictions () = Metrics.counter_value m_evictions
