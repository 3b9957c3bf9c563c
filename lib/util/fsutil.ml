let ( let* ) = Result.bind

let mkdir_p dir =
  let rec go d =
    if d = "" || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir;
  if Sys.file_exists dir && Sys.is_directory dir then Ok ()
  else Error (Printf.sprintf "cannot create directory %s" dir)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

let write_file path content =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Ok ()
  with Sys_error e -> Error e

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let unix_msg fn err = Printf.sprintf "%s: %s" fn (Unix.error_message err)

let unix_result f =
  try Ok (f ()) with
  | Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err)
  | Sys_error e -> Error e

let temp_prefix = ".write"
let temp_suffix = ".tmp"

(* Write [data] to a fresh temp file in [dir]; the temp file never
   survives a failure. *)
let write_tmp ~fsync dir data =
  let* tmp =
    try Ok (Filename.temp_file ~temp_dir:dir temp_prefix temp_suffix)
    with Sys_error e -> Error e
  in
  let result =
    try
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd data;
          if fsync then Unix.fsync fd);
      Ok tmp
    with
    | Sys_error e -> Error e
    | Unix.Unix_error (err, fn, _) -> Error (unix_msg fn err)
  in
  (match result with
  | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
  | Ok _ -> ());
  result

(* Simulated mid-write failure: the partial temp file must be cleaned
   up, exactly as a real ENOSPC path would. *)
let fail_write dir partial msg =
  (match write_tmp ~fsync:false dir partial with
  | Ok tmp -> ( try Sys.remove tmp with Sys_error _ -> ())
  | Error _ -> ());
  Error msg

let write_file_atomic ?(fsync = true) ?backup ~site path content =
  let dir = Filename.dirname path in
  let* () = mkdir_p dir in
  match Faults.on_write site content with
  | `Fail (partial, msg) -> fail_write dir partial msg
  | `Write (data, crash_after) -> (
      (* A torn write models a crash before fsync: skip the syncs so
         the partial content becomes visible. *)
      let fsync = fsync && not crash_after in
      let* tmp = write_tmp ~fsync dir data in
      try
        (match backup with
        | Some bak when Sys.file_exists path ->
            (try if Sys.file_exists bak then Sys.remove bak
             with Sys_error _ -> ());
            (try Unix.link path bak
             with Unix.Unix_error _ | Sys_error _ -> ())
        | _ -> ());
        Sys.rename tmp path;
        if fsync then fsync_dir dir;
        if crash_after then Faults.crash site;
        Ok ()
      with Sys_error e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error e)

(* ---- group commit ----

   A batch stages each write in an unsynced temp file next to its
   final path, then publishes them all at once: one sync of the whole
   filesystem, every rename, a second sync. Data is durable before any
   name points at it, so a file at its final name always holds
   complete bytes — the invariant the object store's dedup-on-exists
   relies on. *)

external has_syncfs : unit -> bool = "dsvc_has_syncfs"
external syncfs : Unix.file_descr -> unit = "dsvc_syncfs"

type sync = Syncfs | Fsync_each

let default_sync () = if has_syncfs () then Syncfs else Fsync_each

type batch = {
  root : string;
  sync : sync;
  staged : (string, string) Hashtbl.t;  (* final path -> temp path *)
}

(* Temps staged by every open batch of this process, which
   [remove_stale_temps] must leave alone. *)
let open_temps_mutex = Mutex.create ()

(* lint: mutable-ok process-global set of staged temp paths; every
   access goes through [open_temps_mutex] *)
let open_temps : (string, unit) Hashtbl.t = Hashtbl.create 64

let with_open_temps f = Mutex.protect open_temps_mutex f

let batch ?(sync = default_sync ()) root =
  { root; sync; staged = Hashtbl.create 64 }

let staged b path = Hashtbl.find_opt b.staged path
let is_empty b = Hashtbl.length b.staged = 0

(* Forget [path]'s staged temp, removing it from disk if [remove]. *)
let drop ~remove b path =
  match staged b path with
  | None -> ()
  | Some tmp ->
      Hashtbl.remove b.staged path;
      with_open_temps (fun () -> Hashtbl.remove open_temps tmp);
      if remove then try Sys.remove tmp with Sys_error _ -> ()

let unstage b path = drop ~remove:true b path
let paths b = Hashtbl.fold (fun path _ acc -> path :: acc) b.staged []
let abort b = List.iter (unstage b) (paths b)
let abandon b = List.iter (drop ~remove:false b) (paths b)

let stage b ~site path content =
  let dir = Filename.dirname path in
  let* () = mkdir_p dir in
  match Faults.on_write site content with
  | `Fail (partial, msg) -> fail_write dir partial msg
  | `Write (data, crash_after) ->
      let* tmp = write_tmp ~fsync:false dir data in
      unstage b path;
      Hashtbl.replace b.staged path tmp;
      with_open_temps (fun () -> Hashtbl.replace open_temps tmp ());
      (* A torn staged write dies before the sync: its temp file stays
         behind, and nothing appears at [path]. *)
      if crash_after then Faults.crash site else Ok ()

(* [sync] applied to a read-only descriptor on [path]. *)
let sync_path sync path =
  unix_result (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> sync fd))

let rec each f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      each f rest

let publish b =
  let entries = Hashtbl.fold (fun path tmp acc -> (path, tmp) :: acc) b.staged [] in
  let* () =
    match b.sync with
    | Syncfs -> sync_path syncfs b.root
    | Fsync_each -> each (fun (_, tmp) -> sync_path Unix.fsync tmp) entries
  in
  let* () =
    each
      (fun (path, tmp) ->
        let* () = unix_result (fun () -> Sys.rename tmp path) in
        drop ~remove:false b path;
        Ok ())
      entries
  in
  match b.sync with
  | Syncfs -> sync_path syncfs b.root
  | Fsync_each ->
      (* the root too: staging may have created a fan-out directory *)
      List.sort_uniq compare
        (b.root :: List.map (fun (path, _) -> Filename.dirname path) entries)
      |> List.iter fsync_dir;
      Ok ()

let is_temp name =
  String.starts_with ~prefix:temp_prefix name
  && Filename.check_suffix name temp_suffix

let remove_stale_temps root =
  let entries dir = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun n sub ->
      let dir = Filename.concat root sub in
      if String.length sub <> 2 || not (Sys.is_directory dir) then n
      else
        Array.fold_left
          (fun n name ->
            let path = Filename.concat dir name in
            if
              is_temp name
              && not (with_open_temps (fun () -> Hashtbl.mem open_temps path))
            then
              match Sys.remove path with
              | () -> n + 1
              | exception Sys_error _ -> n
            else n)
          n (entries dir))
    0 (entries root)
