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

let find t ~kind ~key f =
  let path = entry_path t ~kind ~key in
  if not (Sys.file_exists path) then begin
    Metrics.incr m_misses;
    None
  end
  else
    match Codec.of_file ~kind path f with
    | Ok v ->
        Metrics.incr m_hits;
        Some v
    | Error _ ->
        (* Torn write, bit rot, or a schema change that kept the file name:
           drop the entry and recompute. The eviction counter records files
           this call actually removed — if a concurrent reader already
           unlinked the entry (the remove raises), the eviction was theirs
           and this read tallies only its miss. *)
        (match Sys.remove path with
        | () -> Metrics.incr m_evictions
        | exception Sys_error _ -> ());
        Metrics.incr m_misses;
        None

let store t ~kind ~key f =
  Codec.to_file ~kind (entry_path t ~kind ~key) f;
  Metrics.incr m_stores

let hits () = Metrics.counter_value m_hits
let misses () = Metrics.counter_value m_misses
let evictions () = Metrics.counter_value m_evictions
