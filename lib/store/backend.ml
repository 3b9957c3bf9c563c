module Fsutil = Versioning_util.Fsutil
module Faults = Versioning_util.Faults

type t = {
  name : string;
  put : digest:string -> string -> (unit, string) result;
  get : digest:string -> (string, string) result;
  mem : digest:string -> bool;
  delete : digest:string -> unit;
  list : unit -> (string * int) list;
  total_bytes : unit -> int;
  quarantine : digest:string -> (string, string) result;
  ping : unit -> (unit, string) result;
  batch : 'a. (unit -> ('a, string) result) -> ('a, string) result;
}

let ( let* ) = Result.bind

(* On-disk framing: blobs are stored raw ('R' + bytes) or
   LZ77-compressed ('C' + codestream), whichever is smaller — the
   digest always addresses the logical content. The in-memory backend
   uses the same framing so the two agree byte-for-byte on physical
   sizes and on what an injected [Corrupt] fault does to a blob. *)

let frame content =
  let compressed = Versioning_delta.Compress.lz77 content in
  if String.length compressed < String.length content then "C" ^ compressed
  else "R" ^ content

let unframe framed =
  if String.length framed = 0 then Error "empty object file"
  else
    match framed.[0] with
    | 'R' -> Ok (String.sub framed 1 (String.length framed - 1))
    | 'C' -> (
        try
          Ok
            (Versioning_delta.Compress.unlz77
               (String.sub framed 1 (String.length framed - 1)))
        with Invalid_argument e -> Error ("corrupt compressed object: " ^ e))
    | _ -> Error "unknown object framing"

(* ---- group commit ----

   Both staging backends share one protocol: the body's puts are
   staged; a body that returns [Ok] having staged something consults
   the ["object_store.sync"] site once, then [publish]es; an [Error]
   or an exception [discard]s the staging. An injected crash
   ([Faults.Injected]) is the process dying: [abandon] forgets the
   staging without cleaning up, as a real crash would. A batch opened
   inside a batch joins it. *)

let sync_site = "object_store.sync"

let sync_fault () =
  match Faults.check sync_site with
  | None | Some (Faults.Corrupt _) -> Ok ()
  | Some (Faults.Fail msg) -> Error msg
  | Some (Faults.Crash | Faults.Torn _ | Faults.Drop) -> Faults.crash sync_site

let group_commit ~is_empty ~publish ~discard ~abandon body =
  match
    let* r = body () in
    if is_empty () then Ok r
    else
      let* () = sync_fault () in
      let* () = publish () in
      Ok r
  with
  | Ok _ as r -> r
  | Error _ as e ->
      discard ();
      e
  | exception (Faults.Injected _ as exn) ->
      abandon ();
      raise exn
  | exception exn ->
      discard ();
      raise exn

let unbatched body = body ()

(* Local filesystem: two-character fan-out like Git. *)

let fs_path ~dir digest =
  Filename.concat dir
    (Filename.concat (String.sub digest 0 2) (String.sub digest 2 30))

let fs_using sync ~dir =
  let* () = Fsutil.mkdir_p dir in
  let path_of digest = fs_path ~dir digest in
  let quarantine_dir = Filename.concat dir "quarantine" in
  (* The open batch, if any: puts stage into it, and [mem]/[get] see
     its staged digests. *)
  let current = ref None in
  let staged path = Option.bind !current (fun b -> Fsutil.staged b path) in
  let mem ~digest =
    let path = path_of digest in
    Sys.file_exists path || staged path <> None
  in
  let put ~digest content =
    if mem ~digest then Ok ()
    else
      let path = path_of digest and site = "object_store.write" in
      match !current with
      | Some b -> Fsutil.stage b ~site path (frame content)
      | None -> Fsutil.write_file_atomic ~site path (frame content)
  in
  let get ~digest =
    let path = path_of digest in
    let read p =
      let* framed = Fsutil.read_file p in
      unframe framed
    in
    if Sys.file_exists path then read path
    else
      match staged path with
      | Some tmp -> read tmp
      | None -> Error (Printf.sprintf "object %s not found" digest)
  in
  let delete ~digest =
    let path = path_of digest in
    Option.iter (fun b -> Fsutil.unstage b path) !current;
    if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ()
  in
  let batch body =
    match !current with
    | Some _ -> body ()
    | None ->
        let b = Fsutil.batch ~sync dir in
        current := Some b;
        Fun.protect
          ~finally:(fun () -> current := None)
          (fun () ->
            group_commit
              ~is_empty:(fun () -> Fsutil.is_empty b)
              ~publish:(fun () -> Fsutil.publish b)
              ~discard:(fun () -> Fsutil.abort b)
              ~abandon:(fun () -> Fsutil.abandon b)
              body)
  in
  let list () =
    if not (Sys.file_exists dir) then []
    else
      Sys.readdir dir |> Array.to_list
      |> List.concat_map (fun prefix ->
             let sub = Filename.concat dir prefix in
             if Sys.is_directory sub && String.length prefix = 2 then
               Sys.readdir sub |> Array.to_list
               |> List.filter_map (fun rest ->
                      let digest = prefix ^ rest in
                      if not (Content_hash.is_valid digest) then None
                      else
                        match (Unix.stat (path_of digest)).Unix.st_size with
                        | size -> Some (digest, size)
                        | exception Unix.Unix_error _ -> None)
             else [])
  in
  let total_bytes () =
    List.fold_left (fun acc (_, size) -> acc + size) 0 (list ())
  in
  let quarantine ~digest =
    let src = path_of digest in
    if not (Sys.file_exists src) then
      Error (Printf.sprintf "object %s not found" digest)
    else
      let* () = Fsutil.mkdir_p quarantine_dir in
      let dst = Filename.concat quarantine_dir digest in
      try
        Sys.rename src dst;
        Ok dst
      with Sys_error e -> Error e
  in
  let ping () =
    if Sys.file_exists dir && Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "store directory %s unreachable" dir)
  in
  Ok
    {
      name = "fs:" ^ dir;
      put;
      get;
      mem;
      delete;
      list;
      total_bytes;
      quarantine;
      ping;
      batch;
    }

let fs ~dir = fs_using (Fsutil.default_sync ()) ~dir

(* In-memory: a hashtable of framed blobs. Consults the same
   ["object_store.write"] and ["object_store.sync"] fault sites as the
   filesystem backend, and stages a batch's puts the same way, so the
   QCheck equivalence property can exercise both under identical
   injected failures. *)

let memory () =
  let blobs : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let quarantined : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let staging : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let in_batch = ref false in
  let find digest =
    match Hashtbl.find_opt blobs digest with
    | Some _ as found -> found
    | None -> Hashtbl.find_opt staging digest
  in
  let put ~digest content =
    if find digest <> None then Ok ()
    else
      match Faults.on_write "object_store.write" (frame content) with
      | `Fail (_, msg) -> Error msg
      | `Write (_, true) when !in_batch ->
          (* a torn staged write never becomes addressable *)
          Faults.crash "object_store.write"
      | `Write (framed, crash) ->
          Hashtbl.replace (if !in_batch then staging else blobs) digest framed;
          if crash then Faults.crash "object_store.write" else Ok ()
  in
  let get ~digest =
    match find digest with
    | Some framed -> unframe framed
    | None -> Error (Printf.sprintf "object %s not found" digest)
  in
  let mem ~digest = find digest <> None in
  let delete ~digest =
    Hashtbl.remove staging digest;
    Hashtbl.remove blobs digest
  in
  let batch body =
    if !in_batch then body ()
    else begin
      in_batch := true;
      let drop () = Hashtbl.reset staging in
      Fun.protect
        ~finally:(fun () -> in_batch := false)
        (fun () ->
          group_commit
            ~is_empty:(fun () -> Hashtbl.length staging = 0)
            ~publish:(fun () ->
              Hashtbl.iter (Hashtbl.replace blobs) staging;
              drop ();
              Ok ())
            ~discard:drop ~abandon:drop body)
    end
  in
  let list () =
    Hashtbl.fold (fun d framed acc -> (d, String.length framed) :: acc) blobs []
    |> List.sort compare
  in
  let total_bytes () =
    Hashtbl.fold (fun _ framed acc -> acc + String.length framed) blobs 0
  in
  let quarantine ~digest =
    match Hashtbl.find_opt blobs digest with
    | None -> Error (Printf.sprintf "object %s not found" digest)
    | Some framed ->
        Hashtbl.remove blobs digest;
        Hashtbl.replace quarantined digest framed;
        Ok ("memory:quarantine/" ^ digest)
  in
  let ping () = Ok () in
  {
    name = "memory";
    put;
    get;
    mem;
    delete;
    list;
    total_bytes;
    quarantine;
    ping;
    batch;
  }
