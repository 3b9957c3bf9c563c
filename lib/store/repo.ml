module Line_diff = Versioning_delta.Line_diff
module Pool = Versioning_util.Pool
module Fsutil = Versioning_util.Fsutil
module Faults = Versioning_util.Faults
module Aux_graph = Versioning_core.Aux_graph
module Storage_graph = Versioning_core.Storage_graph
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Obs = Versioning_obs.Obs
module Telemetry = Versioning_obs.Telemetry
module Timeseries = Versioning_obs.Timeseries
module Context = Versioning_obs.Context

let log_src = Logs.Src.create "dsvc.repo" ~doc:"Repository store"

module Log = (val Logs.src_log log_src : Logs.LOG)

let ( let* ) = Result.bind

(* Observability only: cache outcome counters (mirroring the exact
   mutable counters [cache_stats] reports) and optimize phase spans.
   All of it is inert while DSVC_OBS is off. *)
let record_cache result =
  Metrics.counter "dsvc_store_checkout_cache_total"
    ~labels:[ ("result", result) ]
    ~help:"Checkout materialization-cache outcomes"

type commit_info = Meta.commit_info = {
  id : int;
  parents : int list;
  message : string;
  timestamp : float;
}

type stored = Meta.stored = Full of string | Delta_from of int * string

module IM = Meta.Int_map

(* Materialization cache entry: version contents are immutable once
   committed (optimize/repair only re-plan how they are stored), so a
   cached string can never go stale — eviction is purely a bound on
   memory. *)
type cache_entry = { content : string; mutable stamp : int }

type t = {
  root : string;
  store : Object_store.t;
  (* The committed metadata. Replaced, never edited: every mutation
     builds the next value and installs it only after [save] made it
     durable, so memory never runs ahead of disk. *)
  mutable meta : Meta.t;
  (* checkout LRU (per handle, never persisted) *)
  cache : (int, cache_entry) Hashtbl.t;
  mutable cache_slots : int;
  mutable cache_clock : int;
  mutable cache_hits : int;
  mutable cache_partial_hits : int;
  mutable cache_misses : int;
  (* workload telemetry (DESIGN.md §15): per-version access ledger.
     Counting is unconditional and clock-free; cost observation and
     persistence only happen while the Obs gate is on. *)
  mutable telemetry : Telemetry.t;
  mutable telemetry_dirty : bool;
  (* metrics time-series ring (DESIGN.md §16): sampled by the server's
     reactor timer, persisted beside the metadata like the telemetry
     ledger. Replaced wholesale when a prior session's file loads. *)
  mutable timeseries : Timeseries.t;
  (* Per-handle memo of the current plan's predicted recreation bytes,
     learned from full cache-miss chain walks; reset whenever the
     storage plan changes. Observability only — never feeds
     decisions. *)
  phi_memo : (int, float) Hashtbl.t;
  (* lint: mutable-ok last drift score computed by [drift_score];
     cached so [export_telemetry] stays memory-only — recomputing
     walks every stored object, which a server must never do per
     request (in cluster mode those are remote reads taken under the
     repository lock). *)
  mutable last_drift : float;
}

type stats = {
  n_versions : int;
  storage_bytes : int;
  n_full : int;
  n_delta : int;
  max_chain : int;
  sum_recreation_bytes : float;
  max_recreation_bytes : float;
}

type strategy =
  | Min_storage
  | Min_recreation
  | Budgeted_sum of float
  | Bounded_max of float
  | Git_window of int * int
  | Svn_skip

type weights = Uniform | Observed

type drifted = {
  d_version : int;
  d_share : float;
  d_phi : float;
  d_contribution : float;
}

type advice = {
  a_drift : float;
  a_threshold : float;
  a_events : int;
  a_top : drifted list;
  a_current_weighted : float;
  a_candidate_weighted : float;
  a_saving : float;
  a_recommend : bool;
}

type repair_report = {
  quarantined : string list;
  rematerialized : int list;
  unrecoverable : int list;
  strays_removed : int;
}

type fsck_result = { actions : string list; problems : string list }

type cache_stats = { hits : int; partial_hits : int; misses : int }

let default_cache_slots = 16

let meta_dir path = Filename.concat path ".dsvc"
let meta_file path = Filename.concat (meta_dir path) "meta"
let backup_file path = meta_file path ^ ".bak"
let objects_dir path = Filename.concat (meta_dir path) "objects"
let journal_file path = Filename.concat (meta_dir path) "journal"
let telemetry_file path = Filename.concat (meta_dir path) "telemetry"
let timeseries_file path = Filename.concat (meta_dir path) "timeseries"
let lock_file path = Filename.concat (meta_dir path) "lock"

let root t = t.root
let journal_pending t = Sys.file_exists (journal_file t.root)

(* ---- repository lock ----

   One exclusive POSIX record lock per repository directory guards
   against two processes mutating the same metadata. Record locks do
   not exclude within a process, so we keep a single process-wide fd
   per lock path: re-opening the same repository in-process shares the
   lock (and its fd), while another process gets a clean error. The
   pid is recorded so a fork does not inherit a stale claim. *)

let lock_mutex = Mutex.create ()

(* lint: mutable-ok process-global lock registry; every access is
   inside [lock_mutex], and domains never touch it (locks are taken
   on open/close, on the caller's domain only) *)
let lock_table : (string, Unix.file_descr * int) Hashtbl.t = Hashtbl.create 8

let acquire_lock path =
  let key = lock_file path in
  Mutex.lock lock_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock_mutex)
    (fun () ->
      (match Hashtbl.find_opt lock_table key with
      | Some (fd, pid) when pid <> Unix.getpid () ->
          (* inherited across fork: the lock belongs to the parent *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Hashtbl.remove lock_table key
      | _ -> ());
      if Hashtbl.mem lock_table key then Ok ()
      else
        (* lint: raw-write-ok O_CREAT here creates the lock file, not
           repository data; its contents are never read *)
        match Unix.openfile key [ Unix.O_CREAT; Unix.O_RDWR; Unix.O_CLOEXEC ] 0o644 with
        | exception Unix.Unix_error (err, fn, _) ->
            Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
        | fd -> (
            match Unix.lockf fd Unix.F_TLOCK 0 with
            | () ->
                Hashtbl.replace lock_table key (fd, Unix.getpid ());
                Ok ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                Error
                  (Printf.sprintf
                     "repository at %s is locked by another process" path)
            | exception Unix.Unix_error (err, fn, _) ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))))

let release_lock path =
  let key = lock_file path in
  Mutex.lock lock_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock_mutex)
    (fun () ->
      match Hashtbl.find_opt lock_table key with
      | Some (fd, pid) when pid = Unix.getpid () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Hashtbl.remove lock_table key
      | _ -> ())

(* ---- telemetry and time-series persistence ----

   Two observability files live beside the metadata: the access
   ledger (.dsvc/telemetry) and the metrics time-series
   (.dsvc/timeseries). [open] loads them: a prior session's ledger is
   merged into the fresh in-memory one, so counts accumulate across
   sessions, while a loaded time-series replaces the fresh empty one
   wholesale (its rings are bounded, so a union would double-count
   buckets). [close] writes them back, each atomically at its own
   fault site, but only while the Obs gate is on, so an
   un-instrumented run performs no extra I/O. A torn or corrupt file
   is ignored: observability must never make a repository
   unopenable. *)

let telemetry t = t.telemetry
let timeseries t = t.timeseries

let load_ledgers t =
  let load file what parse adopt =
    if Sys.file_exists (file t.root) then
      match Fsutil.read_file (file t.root) with
      | Error _ -> ()
      | Ok content -> (
          match parse content with
          | Ok v -> adopt v
          | Error e ->
              Log.warn (fun m -> m "ignoring unreadable %s: %s" what e))
  in
  load telemetry_file "telemetry ledger" Telemetry.parse (fun ledger ->
      t.telemetry <- Telemetry.merge t.telemetry ledger);
  load timeseries_file "timeseries ledger" Timeseries.parse (fun ts ->
      t.timeseries <- ts)

let flush_ledgers t =
  let telemetry =
    if not t.telemetry_dirty then Ok ()
    else
      let r =
        Fsutil.write_file_atomic ~site:"telemetry.save" (telemetry_file t.root)
          (Telemetry.render t.telemetry)
      in
      if Result.is_ok r then t.telemetry_dirty <- false;
      r
  in
  let timeseries =
    if Timeseries.is_empty t.timeseries then Ok ()
    else
      Fsutil.write_file_atomic ~site:"timeseries.save" (timeseries_file t.root)
        (Timeseries.render t.timeseries)
  in
  Result.bind telemetry (fun () -> timeseries)

let close t =
  if Obs.enabled () then
    (match flush_ledgers t with
    | Ok () -> ()
    | Error e -> Log.warn (fun m -> m "ledgers not persisted: %s" e));
  release_lock t.root

(* ---- metadata persistence ----

   Build, save, install: a mutation computes the next [Meta.t] and
   hands it to [save], which bumps the generation, writes the file,
   and only then installs the value. A failed save installs nothing,
   so there is nothing to roll back. *)

let write_meta t content =
  Fsutil.write_file_atomic ~site:"repo.save" ~backup:(backup_file t.root)
    (meta_file t.root) content

let save t (next : Meta.t) =
  let next = { next with generation = t.meta.generation + 1 } in
  let* () = write_meta t (Meta.render next) in
  t.meta <- next;
  Ok ()

let load path =
  let* content = Fsutil.read_file (meta_file path) in
  Meta.parse content

(* ---- materialization LRU ---- *)

let cache_find t v =
  match Hashtbl.find_opt t.cache v with
  | Some e ->
      t.cache_clock <- t.cache_clock + 1;
      e.stamp <- t.cache_clock;
      Some e.content
  | None -> None

let cache_evict_to t bound =
  (* O(slots) scan per eviction — slots counts are small by design. *)
  while Hashtbl.length t.cache > bound do
    let victim =
      Hashtbl.fold
        (fun v e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (v, e.stamp))
        t.cache None
    in
    match victim with
    | Some (v, _) -> Hashtbl.remove t.cache v
    | None -> ()
  done

let cache_put t v content =
  if t.cache_slots > 0 then begin
    t.cache_clock <- t.cache_clock + 1;
    Hashtbl.replace t.cache v { content; stamp = t.cache_clock };
    cache_evict_to t t.cache_slots
  end

let set_cache_slots t slots =
  if slots < 0 then invalid_arg "Repo.set_cache_slots: negative bound";
  t.cache_slots <- slots;
  if slots = 0 then Hashtbl.reset t.cache else cache_evict_to t slots

let cache_stats t =
  {
    hits = t.cache_hits;
    partial_hits = t.cache_partial_hits;
    misses = t.cache_misses;
  }

(* Observed-recreation bookkeeping for one checkout: wall-clock since
   [t0] plus the bytes read along the chain go into the ledger, with
   the plan's predicted Φ (learned from full cache-miss walks — on a
   miss the chain bytes *are* the plan's recreation cost) and the
   ambient trace id as an exemplar. Only reached when [Telemetry.clock]
   yielded a [Some], i.e. while the gate is on. *)
let note_recreation t version ~t0 ~bytes ~miss =
  let seconds =
    match Telemetry.clock () with Some t1 -> t1 -. t0 | None -> 0.0
  in
  if miss then Hashtbl.replace t.phi_memo version bytes;
  let predicted =
    match Hashtbl.find_opt t.phi_memo version with
    | Some p -> p
    | None -> bytes
  in
  match Context.current_trace_id () with
  | Some trace ->
      Telemetry.record_recreation t.telemetry version ~seconds ~bytes
        ~predicted ~trace ()
  | None ->
      Telemetry.record_recreation t.telemetry version ~seconds ~bytes
        ~predicted ()

(* ---- retrieval: the one delta-chain walk ----

   Walk back from [version] to its full object — or, with [~cached],
   stop at the nearest cached ancestor — collecting the delta digests
   to replay, oldest first. A chain with as many deltas as [stored]
   has entries must revisit a version; the bound is counted once per
   walk because [IM.cardinal] is O(n). *)
let chain t stored ~cached version =
  let limit = IM.cardinal stored in
  let rec walk v deltas depth =
    match if cached && v <> version then cache_find t v else None with
    | Some content -> Ok (`Content content, deltas)
    | None -> (
        match IM.find_opt v stored with
        | None -> Error (Printf.sprintf "version %d is not stored" v)
        | Some (Full digest) -> Ok (`Digest digest, deltas)
        | Some (Delta_from (p, digest)) ->
            if depth >= limit then Error "delta chain contains a cycle"
            else walk p (digest :: deltas) (depth + 1))
  in
  walk version [] 0

(* Repo's one apply site: a stored delta decoded and applied to its
   base's lines ([Line_diff.split]); a script that does not fit the
   base, or does not parse, is an [Error], not an exception. *)
let apply_delta base encoded =
  match Line_diff.apply_lines base (Line_diff.decode encoded) with
  | lines -> Ok lines
  | exception Invalid_argument e -> Error e

(* Rebuild a walk's content: read the base unless it was cached, then
   replay the deltas forward on its lines — split once, joined once; a
   walk without deltas returns the base itself. [bytes], when given,
   accumulates the logical size of every object read — the observed
   recreation cost the telemetry ledger records. Callers pass it only
   while the Obs gate is on, so the plain path does no extra work. *)
let replay ?bytes t (base, deltas) =
  let get digest =
    let* encoded = Object_store.get t.store digest in
    Option.iter
      (fun r -> r := !r +. float_of_int (String.length encoded))
      bytes;
    Ok encoded
  in
  let* base = match base with `Content c -> Ok c | `Digest d -> get d in
  match deltas with
  | [] -> Ok base
  | deltas ->
      let* lines =
        List.fold_left
          (fun acc digest ->
            let* lines = acc in
            let* encoded = get digest in
            apply_delta lines encoded)
          (Ok (Line_diff.split base))
          deltas
      in
      Ok (Line_diff.join lines)

(* One version under a given plan, cache-free: reads every object
   along its chain. [checkout_uncached], [repair] and an import parent
   from before the batch use it. A pass over every version uses
   [materialize_all] instead, which reads each object once. *)
let rebuild t stored version =
  let* walk = chain t stored ~cached:false version in
  replay t walk

let checkout_uncached t version = rebuild t t.meta.stored version

(* Cached checkout: walk the chain backwards only until a materialized
   prefix is found — the version itself (pure hit), a cached ancestor
   (replay only the suffix), or the stored full object (cold). The
   result is cached, so a scan along a chain pays each delta once
   instead of replaying every prefix from the root. *)
let checkout t version =
  (* [None] while the Obs gate is off: the whole cost-observation path
     below collapses and the ledger bump stays the only extra work. *)
  let t0 = Telemetry.clock () in
  match cache_find t version with
  | Some content ->
      t.cache_hits <- t.cache_hits + 1;
      record_cache "hit";
      Telemetry.bump_checkout t.telemetry version ~cached:true;
      t.telemetry_dirty <- true;
      (match t0 with
      | Some t0 -> note_recreation t version ~t0 ~bytes:0.0 ~miss:false
      | None -> ());
      Ok content
  | None ->
      let* ((base, _) as walk) = chain t t.meta.stored ~cached:true version in
      Telemetry.bump_checkout t.telemetry version ~cached:false;
      t.telemetry_dirty <- true;
      let miss = match base with `Digest _ -> true | `Content _ -> false in
      if miss then begin
        t.cache_misses <- t.cache_misses + 1;
        record_cache "miss"
      end
      else begin
        t.cache_partial_hits <- t.cache_partial_hits + 1;
        record_cache "partial"
      end;
      let bytes = Option.map (fun _ -> ref 0.0) t0 in
      let* content = replay ?bytes t walk in
      cache_put t version content;
      (match (t0, bytes) with
      | Some t0, Some c -> note_recreation t version ~t0 ~bytes:!c ~miss
      | _ -> ());
      Ok content

(* ---- the storage-tree walk ---- *)

(* A reader that fetches each digest from the store once per call, so
   an object several versions share, or one [verify] checks twice, is
   read and digest-verified once. *)
let read_once t =
  let seen = Hashtbl.create 64 in
  fun digest ->
    match Hashtbl.find_opt seen digest with
    | Some r -> r
    | None ->
        let r = Object_store.get t.store digest in
        Hashtbl.replace seen digest r;
        r

(* By Lemma 1 a plan is a spanning forest, so depth-first from each
   [Full] root (ascending id) down its [Delta_from] children applies
   each stored object once: the plan's storage cost C, not the
   recreation sum Σ Rᵢ. [f v r] gets exactly what [rebuild t stored v]
   returns. A failure is its whole subtree's, as a replay from the
   root fails at the same object; a version no root reaches (missing
   parent, cycle) gets [chain]'s structural error without a read.
   Only the current path's contents are held, and the checkout LRU is
   never consulted. *)
let materialize_all t stored ~get f =
  let children = Hashtbl.create 64 in
  IM.iter
    (fun v s ->
      match s with
      | Delta_from (p, d) -> Hashtbl.add children p (v, d)
      | Full _ -> ())
    stored;
  let reached = Hashtbl.create 64 in
  (* [lines] is [content]'s lines, which the children's deltas apply
     to: a root splits once, and each version joins once for [f]. *)
  let rec visit v content lines =
    Hashtbl.replace reached v ();
    f v content;
    match List.rev (Hashtbl.find_all children v) with
    | [] -> ()
    | kids ->
        let lines = Lazy.force lines in
        List.iter
          (fun (c, d) ->
            let child =
              let* base = lines in
              let* encoded = get d in
              apply_delta base encoded
            in
            visit c (Result.map Line_diff.join child) (Lazy.from_val child))
          kids
  in
  IM.iter
    (fun v s ->
      match s with
      | Full d ->
          let content = get d in
          visit v content (lazy (Result.map Line_diff.split content))
      | Delta_from _ -> ())
    stored;
  IM.iter
    (fun v _ -> if not (Hashtbl.mem reached v) then f v (rebuild t stored v))
    stored

(* The failing versions of [stored] and their errors, from one walk;
   [ok v content] sees every version that materializes. *)
let failures t stored ~get ok =
  let failed = ref IM.empty in
  materialize_all t stored ~get (fun v -> function
    | Ok content -> ok v content
    | Error e -> failed := IM.add v e !failed);
  !failed

(* every version must reconstruct under [stored] — the invariant
   [optimize] and journal recovery check before destroying anything *)
let check_all_versions t stored =
  match
    IM.min_binding_opt
      (failures t stored ~get:(read_once t) (fun _ _ -> ()))
  with
  | None -> Ok ()
  | Some (v, e) -> Error (Printf.sprintf "version %d: %s" v e)

(* ---- journal (two-phase optimize) ---- *)

let write_journal t ~old_map ~new_map =
  Fsutil.write_file_atomic ~site:"repo.journal" (journal_file t.root)
    (Meta.render_journal ~old_map ~new_map)

let remove_journal t =
  try Sys.remove (journal_file t.root) with Sys_error _ -> ()

let read_journal t =
  if not (Sys.file_exists (journal_file t.root)) then None
  else
    match Fsutil.read_file (journal_file t.root) with
    | Error _ -> None
    | Ok content -> Result.to_option (Meta.parse_journal content)

(* ---- garbage collection ---- *)

let stored_digest = function Full d | Delta_from (_, d) -> d

let references stored digest =
  IM.exists (fun _ s -> String.equal (stored_digest s) digest) stored

let referenced_digests t =
  IM.fold (fun _ s acc -> stored_digest s :: acc) t.meta.stored []

module SS = Set.Make (String)

(* Stale temp files (a crashed write or an unpublished batch) are
   never referenced, so they go first, journal or not. *)
let remove_stale_temps t =
  let n = Object_store.remove_stale_temps t.store in
  if n > 0 then Log.info (fun m -> m "gc: removed %d stale temp file(s)" n)

(* Remove stale temps, then blobs referenced by no version. Deletes no
   blob while an optimize journal is pending, since the journal's maps
   may still reference them. *)
let gc t =
  remove_stale_temps t;
  if Sys.file_exists (journal_file t.root) then 0
  else
    let live = SS.of_list (referenced_digests t) in
    List.fold_left
      (fun acc digest ->
        if SS.mem digest live then acc
        else begin
          Object_store.delete t.store digest;
          acc + 1
        end)
      0
      (Object_store.list_digests t.store)

(* ---- journal recovery (runs under the repo lock at open) ----

   A journal on disk means a crash interrupted [optimize] after its
   new objects were written. Roll forward if the intended map fully
   reconstructs; otherwise roll back to the pre-optimize map; if
   neither is whole (additional damage), keep the journal so [repair]
   can recover over the union of both maps. An unreadable or torn
   journal means the metadata swap never happened: the current
   metadata is authoritative. *)

let recover_journal t =
  if not (Sys.file_exists (journal_file t.root)) then Ok `No_journal
  else
    match read_journal t with
    | None ->
        remove_journal t;
        Ok `Rolled_back
    | Some (old_map, new_map) ->
        let whole m = Result.is_ok (check_all_versions t m) in
        let finish stored outcome =
          let* () = save t { t.meta with stored } in
          remove_journal t;
          Hashtbl.reset t.phi_memo;
          ignore (gc t);
          Ok outcome
        in
        if whole new_map then begin
          Log.warn (fun m ->
              m "interrupted optimize: rolled forward from journal");
          finish new_map `Rolled_forward
        end
        else if whole old_map then begin
          Log.warn (fun m ->
              m "interrupted optimize: rolled back to pre-optimize map");
          finish old_map `Rolled_back
        end
        else begin
          Log.warn (fun m ->
              m
                "interrupted optimize: neither map reconstructs, keeping \
                 journal for repair");
          Ok `Journal_kept
        end

(* ---- open / init ---- *)

(* The [store] override replaces the blob store (cluster mode plugs
   the replicated quorum view in here); metadata, lock, and journal
   always stay on the local filesystem — each node owns its own copy. *)
let resolve_store store path =
  match store with
  | Some s -> Ok s
  | None -> Object_store.create ~dir:(objects_dir path)

(* Lock [path], then build the handle around the metadata [meta]
   returns (read under the lock), with fresh per-handle caches. *)
let attach store path meta =
  let* () = acquire_lock path in
  let* store = resolve_store store path in
  let* meta = meta () in
  Ok
    {
      root = path;
      store;
      meta;
      cache = Hashtbl.create 16;
      cache_slots = default_cache_slots;
      cache_clock = 0;
      cache_hits = 0;
      cache_partial_hits = 0;
      cache_misses = 0;
      telemetry = Telemetry.create ();
      telemetry_dirty = false;
      timeseries = Timeseries.create ();
      phi_memo = Hashtbl.create 16;
      last_drift = 0.0;
    }

let init_opt store ~path =
  if Sys.file_exists (meta_file path) then
    Error (Printf.sprintf "repository already exists at %s" path)
  else
    let* () = Fsutil.mkdir_p (meta_dir path) in
    let* t = attach store path (fun () -> Ok Meta.empty) in
    let* () = save t t.meta in
    Ok t

let init ~path = init_opt None ~path
let init_with ~store ~path = init_opt (Some store) ~path

let open_opt store ~path =
  if not (Sys.file_exists (meta_file path)) then
    Error (Printf.sprintf "no repository at %s" path)
  else
    let* t = attach store path (fun () -> load path) in
    let* _outcome = recover_journal t in
    load_ledgers t;
    Ok t

let open_repo ~path = open_opt None ~path
let open_with ~store ~path = open_opt (Some store) ~path

(* ---- metadata replication (cluster mode) ---- *)

let generation t = t.meta.generation
let object_store t = t.store

let export_meta t =
  (* The on-disk bytes, not a re-render: replicas adopt byte-identical
     metadata, so every node's meta file is comparable directly. *)
  Fsutil.read_file (meta_file t.root)

let adopt_meta t content =
  let* incoming = Meta.parse content in
  if incoming.generation <= t.meta.generation then Ok false
  else
    let* () = write_meta t content in
    t.meta <- incoming;
    (* Version contents are immutable so cached strings stay valid,
       but ids unknown to the new metadata must not linger. *)
    Hashtbl.reset t.cache;
    (* the adopted metadata may carry a different storage plan *)
    Hashtbl.reset t.phi_memo;
    Ok true

(* ---- commits & branches ---- *)

let head t =
  match List.assoc_opt t.meta.head t.meta.branches with
  | Some v when v <> 0 -> Some v
  | _ -> None

let current_branch t = t.meta.head
let branches t = List.filter (fun (_, v) -> v <> 0) t.meta.branches
let log t = t.meta.commits
let commit_info t id = List.find_opt (fun c -> c.id = id) t.meta.commits

(* [put] inside a write that builds the stored map [building] on top
   of the live one. An object already at a digest that neither map
   references is a stray — what [gc] would delete, perhaps a crash's
   torn write — so it is rewritten rather than trusted. Like [gc],
   trust everything while a journal is pending: its maps may reference
   it. *)
let put_object t ~building content =
  Object_store.put t.store content ~stray:(fun digest ->
      (not (references t.meta.stored digest))
      && (not (references building digest))
      && not (journal_pending t))

let store_full t ~building content =
  let* digest = put_object t ~building content in
  Ok (Full digest)

(* Each entry's objects are written first and its version added to a
   metadata value built on the side — later entries chain onto earlier
   ones through it. A parent from earlier in the batch is diffed
   against its entry's content, already in memory; only a parent from
   before the batch is rebuilt from the store. More than one entry
   group-commits its objects ([Object_store.batch]: two syncs in all);
   a single one ([commit]) writes through the per-object atomic path.
   The batch is installed by the one [save] at the end, after its
   objects are durable, so a failure anywhere leaves the handle as it
   was. *)
let import_versions t entries =
  let add (m : Meta.t) batch (message, parents, content) =
    let* () =
      match List.find_opt (fun p -> not (IM.mem p m.stored)) parents with
      | Some p -> Error (Printf.sprintf "unknown parent version %d" p)
      | None -> Ok ()
    in
    let* stored =
      match parents with
      | [] -> store_full t ~building:m.stored content
      | p :: _ ->
          let* parent_content =
            match IM.find_opt p batch with
            | Some c -> Ok c
            | None -> rebuild t m.stored p
          in
          let encoded =
            Line_diff.encode (Line_diff.diff parent_content content)
          in
          if String.length encoded < String.length content then
            let* digest = put_object t ~building:m.stored encoded in
            Ok (Delta_from (p, digest))
          else store_full t ~building:m.stored content
    in
    let id = m.next_id in
    Ok
      {
        m with
        next_id = id + 1;
        stored = IM.add id stored m.stored;
        commits =
          { id; parents; message; timestamp = Unix.gettimeofday () }
          :: m.commits;
        branches = (m.head, id) :: List.remove_assoc m.head m.branches;
      }
  in
  let rec go m batch ids = function
    | [] -> Ok (m, List.rev ids)
    | ((_, _, content) as entry) :: rest ->
        let* m = add m batch entry in
        let id = m.next_id - 1 in
        go m (IM.add id content batch) (id :: ids) rest
  in
  let write () = go t.meta IM.empty [] entries in
  let* m, ids =
    match entries with
    | [] | [ _ ] -> write ()
    | _ -> Object_store.batch t.store write
  in
  let* () = save t m in
  Ok ids

let commit t ?(message = "") ?parents content =
  let parents =
    match parents with Some ps -> ps | None -> Option.to_list (head t)
  in
  let* ids = import_versions t [ (message, parents, content) ] in
  Ok (List.hd ids)

(* A new branch or tag: a valid name not yet in [existing], at [at] or
   the current head, which must be a stored version. *)
let new_ref t ~kind existing name at =
  if not (Meta.valid_ref_name name) then
    Error
      (Printf.sprintf
         "invalid %s name %S (must be non-empty printable characters \
          without whitespace)"
         kind name)
  else if List.mem_assoc name existing then
    Error (Printf.sprintf "%s %s already exists" kind name)
  else
    match if at = None then head t else at with
    | None -> Error (Printf.sprintf "cannot %s in an empty repository" kind)
    | Some v when not (IM.mem v t.meta.stored) ->
        Error (Printf.sprintf "unknown version %d" v)
    | Some v -> Ok v

let create_branch t name ?at () =
  let* v = new_ref t ~kind:"branch" t.meta.branches name at in
  save t { t.meta with branches = (name, v) :: t.meta.branches; head = name }

let switch t name =
  if List.mem_assoc name t.meta.branches then save t { t.meta with head = name }
  else Error (Printf.sprintf "no branch named %s" name)

let tag t name ?at () =
  let* v = new_ref t ~kind:"tag" t.meta.tags name at in
  save t { t.meta with tags = (name, v) :: t.meta.tags }

let tags t = List.sort compare t.meta.tags

let resolve t name =
  match List.assoc_opt name t.meta.tags with
  | Some v -> Some v
  | None -> (
      match List.assoc_opt name t.meta.branches with
      | Some v when v <> 0 -> Some v
      | _ -> (
          match int_of_string_opt name with
          | Some v when IM.mem v t.meta.stored -> Some v
          | _ -> None))

let diff t a b =
  let* ca = checkout t a in
  let* cb = checkout t b in
  Ok (Line_diff.encode (Line_diff.diff ca cb))

let verify t =
  let stored = t.meta.stored in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* every referenced object exists and matches its digest ([get]
     verifies content hashes on every read), then every version
     reconstructs — one read per digest for both checks *)
  let get = read_once t in
  IM.iter
    (fun v s ->
      let digest = stored_digest s in
      match get digest with
      | Error e -> note "version %d: object unreadable (%s)" v e
      | Ok _ -> ())
    stored;
  IM.iter
    (fun v e -> note "version %d: checkout failed (%s)" v e)
    (failures t stored ~get (fun _ _ -> ()));
  (* commit parents all exist *)
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          if not (IM.mem p stored) then
            note "version %d: missing parent %d" c.id p)
        c.parents)
    t.meta.commits;
  if Sys.file_exists (journal_file t.root) then
    note "unresolved optimize journal present (crash recovery incomplete)";
  if !problems = [] then Ok () else Error (List.rev !problems)

(* ---- stats and predicted Φ ---- *)

(* The one Φ walk (Lemma 1 over stored bytes): each version's chain
   depth and recreation cost, the sum of object sizes along its delta
   chain. Memoised, so every referenced object is read once. A chain
   ends at a missing parent, and — through the placeholder entered
   before recursing — at a version it already passed, so hand-edited
   or peer-pushed cyclic metadata still yields finite values. Returns
   the per-version map and the object-size lookup. *)
let phi_walk t =
  let stored = t.meta.stored in
  let sizes = Hashtbl.create 64 in
  let size d =
    match Hashtbl.find_opt sizes d with
    | Some n -> n
    | None ->
        let n =
          match Object_store.get t.store d with
          | Ok c -> String.length c
          | Error _ -> 0
        in
        Hashtbl.replace sizes d n;
        n
  in
  let memo = Hashtbl.create 64 in
  let rec walk v =
    match Hashtbl.find_opt memo v with
    | Some r -> r
    | None ->
        Hashtbl.replace memo v (0, 0.0);
        let r =
          match IM.find_opt v stored with
          | None -> (0, 0.0)
          | Some (Full d) -> (0, float_of_int (size d))
          | Some (Delta_from (p, d)) ->
              let depth, cost = walk p in
              (depth + 1, float_of_int (size d) +. cost)
        in
        Hashtbl.replace memo v r;
        r
  in
  (IM.mapi (fun v _ -> walk v) stored, size)

let stats t =
  let phi, size = phi_walk t in
  let n_versions = IM.cardinal t.meta.stored in
  let n_full =
    IM.fold
      (fun _ s acc -> match s with Full _ -> acc + 1 | _ -> acc)
      t.meta.stored 0
  in
  (* Unique blobs only: dedup shared digests. *)
  let storage_bytes =
    SS.fold (fun d acc -> acc + size d) (SS.of_list (referenced_digests t)) 0
  in
  let max_chain, sum_r, max_r =
    IM.fold
      (fun _ (d, c) (max_d, sum_c, max_c) ->
        (max max_d d, sum_c +. c, Float.max max_c c))
      phi (0, 0.0, 0.0)
  in
  {
    n_versions;
    storage_bytes;
    n_full;
    n_delta = n_versions - n_full;
    max_chain;
    sum_recreation_bytes = sum_r;
    max_recreation_bytes = max_r;
  }

let storage_parents t =
  IM.bindings t.meta.stored
  |> List.map (function
       | v, Full _ -> (0, v)
       | v, Delta_from (p, _) -> (p, v))

(* ---- workload telemetry: drift and observed weights ---- *)

(* The current plan's predicted Φ per version, ascending id: what the
   drift score and [dsvc top] compare observations against. Cheap
   relative to [reveal_graph] — it reads only the objects the plan
   references. *)
let predicted_costs t =
  IM.bindings (fst (phi_walk t)) |> List.map (fun (v, (_, c)) -> (v, c))

let drift_score t =
  let d = Telemetry.drift t.telemetry ~costs:(predicted_costs t) in
  t.last_drift <- d;
  d

(* Observed access frequencies for the solver, indexed 1..n: the
   ledger's decayed weights normalized to a distribution, then floored
   at 1% of uniform so never-accessed versions keep a nonzero weight
   (their recreation still matters, just 100× less than an even
   share). [None] while the ledger is empty — callers fall back to
   uniform, which is the same plan as not passing frequencies at
   all. *)
let observed_freqs t =
  let n = t.meta.next_id - 1 in
  if n <= 0 then None
  else begin
    let raw =
      Array.init (n + 1) (fun v ->
          if v = 0 then 0.0 else Telemetry.freq_of t.telemetry v)
    in
    let sum = Array.fold_left ( +. ) 0.0 raw in
    if sum <= 0.0 then None
    else begin
      let floor_w = 0.01 /. float_of_int n in
      Some
        (Array.mapi
           (fun v r -> if v = 0 then 0.0 else (r /. sum) +. floor_w)
           raw)
    end
  end

(* Memory-only on purpose: the drift gauge reuses the last
   [drift_score] result (0 until one is computed — GET /stats,
   [advise], `dsvc top` and the bench all compute one) rather than
   re-walking every stored object here. A server calls this under the
   repository lock after each repo-touching request; in cluster mode a
   fresh walk would mean remote blob reads under that lock — the
   recipe for a cross-node lock cycle. *)
let export_telemetry t =
  if Obs.enabled () then
    Telemetry.export t.telemetry ~repo:t.root ~drift:t.last_drift

(* ---- optimization ---- *)

(* Hop-bounded pairs over the commit DAG (both directions). *)
let hop_pairs t ~max_hops =
  let ids = List.rev_map (fun c -> c.id) t.meta.commits in
  let adj = Hashtbl.create 64 in
  let add a b =
    let cur = Option.value (Hashtbl.find_opt adj a) ~default:[] in
    Hashtbl.replace adj a (b :: cur)
  in
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          add c.id p;
          add p c.id)
        c.parents)
    t.meta.commits;
  let pairs = ref [] in
  List.iter
    (fun src ->
      let dist = Hashtbl.create 16 in
      Hashtbl.replace dist src 0;
      let q = Queue.create () in
      Queue.add src q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        let du = Hashtbl.find dist u in
        if du < max_hops then
          List.iter
            (fun w ->
              if not (Hashtbl.mem dist w) then begin
                Hashtbl.replace dist w (du + 1);
                pairs := (src, w) :: !pairs;
                Queue.add w q
              end)
            (Option.value (Hashtbl.find_opt adj u) ~default:[])
      done)
    ids;
  !pairs

(* All version contents, index 1..n, from one walk; the first failure
   in ascending id is the error. *)
let all_contents t =
  let n = t.meta.next_id - 1 in
  let stored = t.meta.stored in
  let arr = Array.make (n + 1) "" in
  let failed =
    failures t stored ~get:(read_once t) (fun v c ->
        if v >= 1 && v <= n then arr.(v) <- c)
  in
  let rec go v =
    if v > n then Ok arr
    else if not (IM.mem v stored) then
      Error (Printf.sprintf "version %d is not stored" v)
    else
      match IM.find_opt v failed with Some e -> Error e | None -> go (v + 1)
  in
  go 1

(* The repository's revealed ⟨Δ, Φ⟩ graph: materializations plus
   line-diff deltas between versions within [max_hops] of each other
   in the commit DAG, plus any [extra_pairs]. This is the dominant
   cost of [optimize] — O(pairs) line diffs. Each version's lines are
   interned once, inside the [optimize.diff_sizes] span, so a diff is
   Myers over int ids and its size is arithmetic; the interned value
   is immutable once built (its hashtable is dropped), so the diffs fan
   out over the domain pool. The pair list is deduplicated in reveal
   order first and the edges are added sequentially in that same
   order, so the revealed graph is identical for every [jobs].
   Returns the interned lines too, for [optimize]'s materialize
   phase. *)
let reveal t ~max_hops ~extra_pairs ~jobs =
  let n = t.meta.next_id - 1 in
  if n = 0 then Error "empty repository"
  else
    Trace.with_span "optimize.graph_construction" @@ fun () ->
    let* contents =
      Trace.with_span "optimize.load_contents" (fun () -> all_contents t)
    in
    let aux = Aux_graph.create ~n_versions:n in
    for v = 1 to n do
      let size = float_of_int (String.length contents.(v)) in
      Aux_graph.add_materialization aux ~version:v ~delta:size ~phi:size
    done;
    let seen = Hashtbl.create 64 in
    let ordered = ref [] in
    let consider (u, v) =
      if u >= 1 && v >= 1 && u <> v && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.replace seen (u, v) ();
        ordered := (u, v) :: !ordered
      end
    in
    List.iter consider (hop_pairs t ~max_hops);
    List.iter consider extra_pairs;
    let pairs = Array.of_list (List.rev !ordered) in
    let lines, sizes =
      Trace.with_span "optimize.diff_sizes" (fun () ->
          let lines = Line_diff.intern contents in
          ( lines,
            Pool.parallel_map ~jobs
              (fun (u, v) ->
                float_of_int (Line_diff.size (Line_diff.diff_in lines u v)))
              pairs ))
    in
    Array.iteri
      (fun i (u, v) ->
        Aux_graph.add_delta aux ~src:u ~dst:v ~delta:sizes.(i) ~phi:sizes.(i))
      pairs;
    Ok (aux, contents, lines)

let reveal_graph t ?(max_hops = 3) ?(extra_pairs = [])
    ?(jobs = Pool.default_jobs ()) () =
  let* aux, contents, _ = reveal t ~max_hops ~extra_pairs ~jobs in
  Ok (aux, contents)

(* [optimize] is crash-safe via a two-phase protocol:

   1. write every new object (the old ones are untouched), as one
      group commit: staged unsynced, synced once, renamed, synced
      again;
   2. journal both the old and the intended stored maps, fsynced;
   3. atomically swap the metadata to the new map;
   4. verify every version reconstructs under the new map;
   5. only then delete the journal and garbage-collect.

   A crash at any point leaves the repository recoverable: before the
   journal, the old metadata is intact and the new objects are strays
   or unpublished temp files, both of which [gc] removes; after it,
   [recover_journal] (run by [open_repo]) rolls forward or back; and
   the GC never deletes an object while a journal is pending. *)
let strategy_name = function
  | Min_storage -> "min_storage"
  | Min_recreation -> "min_recreation"
  | Budgeted_sum _ -> "budgeted_sum"
  | Bounded_max _ -> "bounded_max"
  | Git_window _ -> "git_window"
  | Svn_skip -> "svn_skip"

let optimize t ?(max_hops = 3) ?(jobs = Pool.default_jobs ())
    ?(check = false) ?(weights = Uniform) strategy =
  Trace.with_span "optimize" @@ fun () ->
  Metrics.counter "dsvc_store_optimize_total"
    ~labels:[ ("strategy", strategy_name strategy) ]
    ~help:"Repo.optimize invocations, by strategy";
  let n = t.meta.next_id - 1 in
  if n = 0 then Error "empty repository"
  else begin
    (* Observed weights only change the workload-aware LMG objective;
       every other strategy's optimum is frequency-independent. An
       empty ledger degrades to uniform — the identical plan. *)
    let freqs =
      match weights with Uniform -> None | Observed -> observed_freqs t
    in
    (match (weights, freqs, strategy) with
    | Observed, None, _ ->
        Log.warn (fun m ->
            m
              "optimize: observed weights requested but the access ledger \
               is empty; planning with uniform weights")
    | Observed, Some _, Budgeted_sum _ -> ()
    | Observed, Some _, _ ->
        Log.warn (fun m ->
            m
              "optimize: observed weights only affect the budgeted_sum \
               (LMG) strategy; %s plans ignore them"
              (strategy_name strategy))
    | Uniform, _, _ -> ());
    (* The SVN baseline dictates its own delta pairs, which may lie
       outside the hop window. *)
    let extra_pairs =
      match strategy with
      | Svn_skip ->
          Versioning_core.Skip_delta.parents
            ~order:(Array.init n (fun i -> i + 1))
      | _ -> []
    in
    let* aux, contents, lines = reveal t ~max_hops ~extra_pairs ~jobs in
    let* plan =
      Trace.with_span "optimize.solve" @@ fun () ->
      match strategy with
      | Min_storage -> Versioning_core.Mca.solve aux
      | Min_recreation -> Versioning_core.Spt.solve aux
      | Budgeted_sum factor -> (
          match (Versioning_core.Mca.solve aux, Versioning_core.Spt.solve aux)
          with
          | Ok base, Ok spt ->
              let budget = factor *. Storage_graph.storage_cost base in
              Ok (Versioning_core.Lmg.solve aux ~base ~spt ~budget ?freqs ())
          | (Error _ as e), _ | _, (Error _ as e) -> e)
      | Bounded_max factor -> (
          let dist = Versioning_core.Spt.distances aux in
          let maxd = Array.fold_left Float.max 0.0 dist in
          match Versioning_core.Mp.solve aux ~theta:(factor *. maxd) with
          | { tree = Some sg; _ } -> Ok sg
          | { tree = None; _ } -> Error "recreation bound infeasible")
      | Git_window (w, d) ->
          Versioning_core.Gith.solve ~jobs aux ~window:w ~max_depth:d
      | Svn_skip ->
          Versioning_core.Skip_delta.solve aux
            ~order:(Array.init n (fun i -> i + 1))
    in
    (* Refuse to rewrite storage from a plan that fails independent
       verification (spanning arborescence over revealed edges, Lemma 1
       accounting) — a solver bug must not reach the object store. *)
    let* () =
      if not check then Ok ()
      else
        match Versioning_core.Solution_check.check aux plan with
        | Ok _ -> Ok ()
        | Error problems ->
            Error
              ("optimize: solver produced an invalid solution:\n"
              ^ String.concat "\n" problems)
    in
    let old_stored = t.meta.stored in
    let current_parent v =
      match IM.find_opt v old_stored with
      | Some (Full _) -> Some 0
      | Some (Delta_from (p, _)) -> Some p
      | None -> None
    in
    (* Phase 1: write the new objects, building the intended map on
       the side — the live map (memory and disk) is untouched, so an
       error or crash here costs only stray blobs or temp files. The
       writes are one [Object_store.batch]: the journal below is
       written only after they are all durable. Only entries whose
       storage parent changes are rewritten (the migration-plan
       discipline): unchanged versions keep their existing objects.
       The payloads (full contents, or encoded diffs from the reveal's
       interned lines) are pure functions of immutable arrays, so they
       fan out over the domain pool; the [Object_store.put] calls stay
       sequential, in plan order, to keep fault-injection sites and
       store traffic identical to a jobs=1 run. *)
    let changed =
      Array.of_list
        (List.filter
           (fun (p, v) -> current_parent v <> Some p)
           (Storage_graph.to_parents plan))
    in
    Metrics.counter "dsvc_store_optimize_objects_rewritten_total"
      ~by:(float_of_int (Array.length changed))
      ~help:"Versions whose stored object optimize rewrote";
    let* new_stored =
      Trace.with_span "optimize.materialize" @@ fun () ->
      let payloads =
        Pool.parallel_map ~jobs
          (fun (p, v) ->
            if p = 0 then contents.(v)
            else Line_diff.encode (Line_diff.diff_in lines p v))
          changed
      in
      let rec put i stored =
        if i = Array.length changed then Ok stored
        else
          let p, v = changed.(i) in
          let* digest = put_object t ~building:stored payloads.(i) in
          put (i + 1)
            (IM.add v (if p = 0 then Full digest else Delta_from (p, digest))
               stored)
      in
      Object_store.batch t.store (fun () -> put 0 old_stored)
    in
    Faults.guard "optimize.after_objects";
    (* Phase 2: journal both maps. *)
    let* () = write_journal t ~old_map:old_stored ~new_map:new_stored in
    Faults.guard "optimize.after_journal";
    (* Phase 3: swap the metadata. A failed save installed nothing,
       so the old plan stays authoritative and the journal goes. *)
    let* () =
      match save t { t.meta with stored = new_stored } with
      | Ok () -> Ok ()
      | Error e ->
          remove_journal t;
          Error e
    in
    Faults.guard "optimize.after_swap";
    (* Phase 4: verify before destroying anything. *)
    match
      Trace.with_span "optimize.verify" (fun () ->
          check_all_versions t new_stored)
    with
    | Error e ->
        let* () = save t { t.meta with stored = old_stored } in
        remove_journal t;
        Error (Printf.sprintf "optimize verification failed, rolled back: %s" e)
    | Ok () ->
        (* Phase 5: the swap is durable — clean up. *)
        remove_journal t;
        (* new plan, new predicted recreation costs *)
        Hashtbl.reset t.phi_memo;
        Faults.guard "optimize.before_gc";
        ignore (Trace.with_span "optimize.gc" (fun () -> gc t));
        Ok (stats t)
  end

(* ---- advise: should this repository re-optimize? ----

   Re-derives the current plan's predicted Φ on the revealed ⟨Δ, Φ⟩
   instance (forcing the plan's own edges into the reveal so Lemma-1 /
   Solution_check accounting applies to it), scores the workload drift
   against the ledger, and prices a candidate LMG re-plan under the
   observed frequencies at the storage budget the current plan already
   spends. Read-only: nothing is rewritten. *)
let advise t ?(max_hops = 3) ?(jobs = Pool.default_jobs ())
    ?(threshold = 0.5) ?(k = 5) () =
  let n = t.meta.next_id - 1 in
  if n = 0 then Error "empty repository"
  else begin
    let current_pairs =
      List.filter (fun (p, _) -> p <> 0) (storage_parents t)
    in
    let* aux, _contents =
      reveal_graph t ~max_hops ~extra_pairs:current_pairs ~jobs ()
    in
    let check_str sg =
      Result.map_error
        (fun problems -> String.concat "; " problems)
        (Versioning_core.Solution_check.check aux sg)
    in
    let* current =
      Storage_graph.of_parents ~jobs aux ~parents:(storage_parents t)
    in
    let* _report = check_str current in
    let phi = Storage_graph.recreation_costs current in
    let costs = List.init n (fun i -> (i + 1, phi.(i + 1))) in
    let a_drift = Telemetry.drift t.telemetry ~costs in
    let uniform = Array.make (n + 1) (1.0 /. float_of_int n) in
    let freqs = Option.value (observed_freqs t) ~default:uniform in
    let a_current_weighted =
      Storage_graph.weighted_recreation current ~freqs
    in
    let* candidate =
      match
        (Versioning_core.Mca.solve aux, Versioning_core.Spt.solve aux)
      with
      | Ok base, Ok spt ->
          let budget =
            Float.max
              (Storage_graph.storage_cost current)
              (Storage_graph.storage_cost base)
          in
          Ok (Versioning_core.Lmg.solve aux ~base ~spt ~budget ~freqs ())
      | (Error _ as e), _ | _, (Error _ as e) -> e
    in
    let* _report = check_str candidate in
    let a_candidate_weighted =
      Storage_graph.weighted_recreation candidate ~freqs
    in
    (* Top drifted versions: the largest |p̂(v) − 1/n|·Φ(v) terms of
       the drift numerator — where the plan most misprices the actual
       workload. *)
    let raw =
      Array.init (n + 1) (fun v ->
          if v = 0 then 0.0 else Telemetry.freq_of t.telemetry v)
    in
    let rawsum = Array.fold_left ( +. ) 0.0 raw in
    let share v = if rawsum > 0.0 then raw.(v) /. rawsum else 0.0 in
    let a_top =
      List.init n (fun i ->
          let v = i + 1 in
          {
            d_version = v;
            d_share = share v;
            d_phi = phi.(v);
            d_contribution =
              Float.abs (share v -. (1.0 /. float_of_int n)) *. phi.(v);
          })
      |> List.sort (fun a b ->
             match compare b.d_contribution a.d_contribution with
             | 0 -> compare a.d_version b.d_version
             | c -> c)
      |> List.filteri (fun i _ -> i < k)
    in
    let a_saving =
      if a_current_weighted > 0.0 then
        (a_current_weighted -. a_candidate_weighted) /. a_current_weighted
      else 0.0
    in
    let a_events = Telemetry.events t.telemetry in
    Ok
      {
        a_drift;
        a_threshold = threshold;
        a_events;
        a_top;
        a_current_weighted;
        a_candidate_weighted;
        a_saving;
        a_recommend =
          a_events > 0 && a_drift > threshold
          && a_candidate_weighted < a_current_weighted;
      }
  end

(* ---- repair ---- *)

(* Recover every version content reachable over the union of intact
   delta edges from the current stored map plus both journal maps (if
   a journal survived recovery, both the old and new plans were
   damaged — but together they may still cover every version). *)
let recoverable_contents t =
  let maps =
    t.meta.stored
    :: (match read_journal t with
       | Some (old_map, new_map) -> [ old_map; new_map ]
       | None -> [])
  in
  let entries = List.concat_map IM.bindings maps in
  let recovered : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (v, s) ->
        if not (Hashtbl.mem recovered v) then
          match s with
          | Full d -> (
              match Object_store.get t.store d with
              | Ok c ->
                  Hashtbl.replace recovered v c;
                  progress := true
              | Error _ -> ())
          | Delta_from (p, d) -> (
              match Hashtbl.find_opt recovered p with
              | None -> ()
              | Some base -> (
                  let applied =
                    let* encoded = Object_store.get t.store d in
                    apply_delta (Line_diff.split base) encoded
                  in
                  match applied with
                  | Ok lines ->
                      Hashtbl.replace recovered v (Line_diff.join lines);
                      progress := true
                  | Error _ -> ())))
      entries
  done;
  recovered

let repair t =
  (* 1. Quarantine every blob that fails its digest, so a later [put]
     of the true content can lay down a good copy at the same path. *)
  let quarantined =
    List.filter
      (fun d ->
        match Object_store.status t.store d with
        | `Corrupt -> (
            match Object_store.quarantine t.store d with
            | Ok _ -> true
            | Error _ -> false)
        | `Ok | `Missing -> false)
      (Object_store.list_digests t.store)
  in
  (* 2. Recover whatever contents the surviving objects still
     determine, across the current map and any pending journal. *)
  let recovered = recoverable_contents t in
  (* 3. Re-materialize broken versions from the recovered contents.
     Re-check each version as we go: fixing a base version heals its
     delta children for free. *)
  let stored = ref t.meta.stored in
  let rematerialized = ref [] and unrecoverable = ref [] in
  IM.iter
    (fun v _ ->
      match rebuild t !stored v with
      | Ok _ -> ()
      | Error _ -> (
          match Hashtbl.find_opt recovered v with
          | None -> unrecoverable := v :: !unrecoverable
          | Some content -> (
              match Object_store.put t.store content with
              | Ok digest ->
                  stored := IM.add v (Full digest) !stored;
                  rematerialized := v :: !rematerialized
              | Error _ -> unrecoverable := v :: !unrecoverable)))
    t.meta.stored;
  let* () = save t { t.meta with stored = !stored } in
  (* 4. Only a fully recovered repository may drop its safety nets:
     with everything reconstructible the journal is obsolete and
     unreferenced blobs (including aborted-optimize strays) can go. *)
  let strays_removed =
    if !unrecoverable = [] then begin
      remove_journal t;
      gc t
    end
    else begin
      remove_stale_temps t;
      0
    end
  in
  let count_outcome outcome n =
    if n > 0 then
      Metrics.counter "dsvc_store_repair_actions_total"
        ~labels:[ ("outcome", outcome) ]
        ~by:(float_of_int n)
        ~help:"Repo.repair actions, by outcome"
  in
  count_outcome "quarantined" (List.length quarantined);
  count_outcome "rematerialized" (List.length !rematerialized);
  count_outcome "unrecoverable" (List.length !unrecoverable);
  count_outcome "strays_removed" strays_removed;
  List.iter
    (fun d -> Log.warn (fun m -> m "repair: quarantined corrupt object %s" d))
    quarantined;
  List.iter
    (fun v -> Log.info (fun m -> m "repair: re-materialized version %d" v))
    !rematerialized;
  List.iter
    (fun v -> Log.warn (fun m -> m "repair: version %d is unrecoverable" v))
    !unrecoverable;
  if strays_removed > 0 then
    Log.info (fun m ->
        m "repair: removed %d unreferenced object(s)" strays_removed);
  Ok
    {
      quarantined;
      rematerialized = List.rev !rematerialized;
      unrecoverable = List.rev !unrecoverable;
      strays_removed;
    }

(* ---- fsck ---- *)

let fsck_opt store ~path ~repair:do_repair =
  let actions = ref [] in
  let act fmt = Printf.ksprintf (fun s -> actions := s :: !actions) fmt in
  let open_with_backup_fallback () =
    match open_opt store ~path with
    | Ok t -> Ok t
    | Error e ->
        (* A torn or corrupt metadata file can be rolled back to the
           last durable save; the damaged file is kept aside. *)
        if
          do_repair
          && Sys.file_exists (meta_file path)
          && Sys.file_exists (backup_file path)
        then
          let* backup = Fsutil.read_file (backup_file path) in
          let* _probe = Meta.parse backup in
          let meta = meta_file path in
          (try Sys.rename meta (meta ^ ".corrupt") with Sys_error _ -> ());
          let* () =
            Fsutil.write_file_atomic ~site:"repo.save" meta backup
          in
          let* t = open_opt store ~path in
          act
            "restored metadata from backup (damaged file kept as \
             meta.corrupt)";
          Log.warn (fun m ->
              m
                "fsck: restored metadata from backup (damaged file kept as \
                 meta.corrupt)");
          Ok t
        else Error e
  in
  let* t = open_with_backup_fallback () in
  let* () =
    if not do_repair then Ok ()
    else
      let* report = repair t in
      List.iter (fun d -> act "quarantined corrupt object %s" d)
        report.quarantined;
      List.iter (fun v -> act "re-materialized version %d" v)
        report.rematerialized;
      List.iter (fun v -> act "version %d is unrecoverable" v)
        report.unrecoverable;
      if report.strays_removed > 0 then
        act "removed %d unreferenced object(s)" report.strays_removed;
      Ok ()
  in
  let problems = match verify t with Ok () -> [] | Error ps -> ps in
  Metrics.counter "dsvc_store_fsck_total"
    ~labels:[ ("result", (if problems = [] then "clean" else "problems")) ]
    ~help:"Repo.fsck runs, by final verdict";
  Ok { actions = List.rev !actions; problems }

let fsck ~path ~repair = fsck_opt None ~path ~repair
let fsck_with ~store ~path ~repair = fsck_opt (Some store) ~path ~repair
