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

let record_stream ~bytes =
  Metrics.counter "dsvc_store_stream_bytes_total" ~by:(float_of_int bytes)
    ~help:"Logical bytes served chunk-wise by Object_store.get_stream"

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

(* ---- streamed reads (zero-copy blob serving, DESIGN.md §13) ------

   A blob as a sequence of fixed-size chunks with the exact logical
   length known up front. Raw-framed ('R') filesystem blobs stream
   straight off disk, the digest verified incrementally — the final
   chunk is only released once the whole content checked out, so a
   corrupt blob cuts the body short instead of serving bad bytes as
   a complete response. Compressed ('C') frames and non-filesystem
   backends fall back to a verified full read served chunk-wise
   (still no response-sized concatenation on the HTTP side). *)

type blob_stream = {
  bs_length : int;
  bs_read : unit -> (string option, string) result;
  bs_close : unit -> unit;
}

let default_chunk_size = 64 * 1024

let stream_of_string ~chunk content =
  let pos = ref 0 in
  let len = String.length content in
  {
    bs_length = len;
    bs_read =
      (fun () ->
        if !pos >= len then Ok None
        else begin
          let n = min chunk (len - !pos) in
          let piece = String.sub content !pos n in
          pos := !pos + n;
          Ok (Some piece)
        end);
    bs_close = (fun () -> ());
  }

let stream_raw_file ~chunk path digest =
  let ic = open_in_bin path in
  let length = in_channel_length ic - 1 in
  seek_in ic 1;
  let st = Content_hash.init () in
  let remaining = ref length in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      close_in_noerr ic
    end
  in
  let read () =
    if !remaining <= 0 then begin
      close ();
      Ok None
    end
    else
      let n = min chunk !remaining in
      match really_input_string ic n with
      | piece ->
          Content_hash.feed st piece;
          remaining := !remaining - n;
          if !remaining > 0 then Ok (Some piece)
          else begin
            close ();
            if Content_hash.finish st <> digest then begin
              record_verify "corrupt";
              Error
                (Printf.sprintf
                   "object %s is corrupt (content fails its digest)" digest)
            end
            else begin
              record_verify "ok";
              record_get ~bytes:length;
              Ok (Some piece)
            end
          end
      | exception End_of_file ->
          close ();
          Error (Printf.sprintf "object %s is truncated on disk" digest)
  in
  { bs_length = length; bs_read = read; bs_close = close }

(* Count chunks as they are actually handed to the caller, so the
   stream-bytes counter reflects what went out on the wire (a stream
   abandoned after one chunk only counts that chunk). *)
let counted stream =
  {
    stream with
    bs_read =
      (fun () ->
        match stream.bs_read () with
        | Ok (Some piece) as r ->
            record_stream ~bytes:(String.length piece);
            r
        | r -> r);
  }

let get_stream ?(chunk = default_chunk_size) t digest =
  if not (Content_hash.is_valid digest) then
    Error (Printf.sprintf "invalid digest %S" digest)
  else
    let fallback () =
      let* content = get t digest in
      Ok (counted (stream_of_string ~chunk content))
    in
    match t.fs_dir with
    | None -> fallback ()
    | Some dir -> (
        let path = Backend.fs_path ~dir digest in
        match open_in_bin path with
        | exception Sys_error _ -> fallback ()
        | probe -> (
            (* Peek the framing tag: only raw frames stream off disk. *)
            let tag = try Some (input_char probe) with End_of_file -> None in
            close_in_noerr probe;
            match tag with
            | Some 'R' -> (
                match stream_raw_file ~chunk path digest with
                | s -> Ok (counted s)
                | exception Sys_error e -> Error e)
            | Some _ | None -> fallback ()))

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
