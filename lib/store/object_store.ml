(* [fs_dir] is set only for plain filesystem stores; [path_of] and
   the on-disk layout questions in tooling only make sense there. *)
type t = { backend : Backend.t; fs_dir : string option }

let ( let* ) = Result.bind

module Metrics = Versioning_obs.Metrics
module Fsutil = Versioning_util.Fsutil

(* Observability only: latencies, byte volumes and verification
   outcomes. No-ops while DSVC_OBS is off; values never influence
   store behaviour. *)
let record_put ~bytes =
  Metrics.counter "dsvc_store_put_bytes_total" ~by:(float_of_int bytes)
    ~help:"Logical bytes written through Object_store.put"

let record_get ~bytes =
  Metrics.counter "dsvc_store_get_bytes_total" ~by:(float_of_int bytes)
    ~help:"Logical bytes served by Object_store.get"

let record_verify result =
  Metrics.counter "dsvc_store_digest_verify_total"
    ~labels:[ ("result", result) ]
    ~help:"Digest verifications on object reads, by outcome"

let create_using sync ~dir =
  let* backend = Backend.fs_using sync ~dir in
  Ok { backend; fs_dir = Some dir }

let create ~dir = create_using (Fsutil.default_sync ()) ~dir

let of_backend backend = { backend; fs_dir = None }
let memory () = of_backend (Backend.memory ())
let backend t = t.backend

let put ?(stray = fun _ -> false) t content =
  Metrics.time "dsvc_store_put_seconds"
    ~help:"Object_store.put latency (including the no-op dedup path)"
  @@ fun () ->
  let digest = Content_hash.hex content in
  let present = t.backend.Backend.mem ~digest in
  (* Only a plain filesystem store is this process's alone: elsewhere
     an unreferenced copy may be another writer's, and deleting it
     could lose a write that writer acknowledged. *)
  if present && not (t.fs_dir <> None && stray digest) then Ok digest
  else begin
    (* A stray may be a crash's torn leftover: replace it unread. *)
    if present then t.backend.Backend.delete ~digest;
    let* () = t.backend.Backend.put ~digest content in
    record_put ~bytes:(String.length content);
    Ok digest
  end

let batch t body = t.backend.Backend.batch body

let get t digest =
  Metrics.time "dsvc_store_get_seconds" ~help:"Object_store.get latency"
  @@ fun () ->
  if not (Content_hash.is_valid digest) then
    Error (Printf.sprintf "invalid digest %S" digest)
  else
    let* content = t.backend.Backend.get ~digest in
    (* Always verify: one flipped bit in a delta blob would otherwise
       silently corrupt every version downstream of it. *)
    if Content_hash.hex content <> digest then begin
      record_verify "corrupt";
      Error
        (Printf.sprintf "object %s is corrupt (content fails its digest)"
           digest)
    end
    else begin
      record_verify "ok";
      record_get ~bytes:(String.length content);
      Ok content
    end

let status t digest =
  if not (Content_hash.is_valid digest) then `Missing
  else if not (t.backend.Backend.mem ~digest) then `Missing
  else
    match t.backend.Backend.get ~digest with
    | Error _ -> `Corrupt
    | Ok content -> if Content_hash.hex content = digest then `Ok else `Corrupt

let mem t digest =
  Content_hash.is_valid digest && t.backend.Backend.mem ~digest

let delete t digest = if mem t digest then t.backend.Backend.delete ~digest
let quarantine t digest = t.backend.Backend.quarantine ~digest

let path_of t digest =
  match t.fs_dir with
  | Some dir -> Backend.fs_path ~dir digest
  | None ->
      (* Non-filesystem stores have no paths; return a debug label so
         existing tooling prints something identifiable rather than a
         bogus relative path. *)
      Printf.sprintf "<%s>/%s" t.backend.Backend.name digest

let list_digests t = List.map fst (t.backend.Backend.list ())

let remove_stale_temps t =
  match t.fs_dir with
  | Some dir -> Fsutil.remove_stale_temps dir
  | None -> 0

let total_bytes t = t.backend.Backend.total_bytes ()
