(** Filesystem primitives shared by the store tier, with durability
    and fault injection built in.

    {!write_file_atomic} is the single write path for blobs, repository
    metadata and the optimize journal: unique temp file in the target
    directory, full write, [fsync], rename, directory [fsync] — so a
    crash leaves either the old file or the new one, never a torn mix,
    and a failed write never leaks its temp file. Its batch form
    ({!batch}, {!stage}, {!publish}) group-commits many blob writes:
    every temp file is written unsynced, one sync makes them all
    durable, and only then are they renamed into place and synced
    again. Every write consults {!Faults} at the caller's site, which
    is how the fault-injection tests produce partial writes, torn
    renames and flipped bytes. *)

val mkdir_p : string -> (unit, string) result

val read_file : string -> (string, string) result

val write_file : string -> string -> (unit, string) result
(** [write_file path content] is the plain, non-durable write path for
    exports and CLI outputs (graph dumps, checkout [-o], bench
    artifacts): a buffered write with no temp file, no [fsync] and no
    fault injection. Persistent repository state must go through
    {!write_file_atomic} instead; the lint's raw-write rule (R1)
    confines the underlying primitives to this module either way. *)

val write_file_atomic :
  ?fsync:bool ->
  ?backup:string ->
  site:string ->
  string ->
  string ->
  (unit, string) result
(** [write_file_atomic ~site path content] durably replaces [path]
    with [content]. [fsync] (default true) syncs the file before the
    rename and the directory after it. [backup], if given and [path]
    already exists, hard-links the previous version to that name
    before the swap (best effort) — the recovery source for torn
    metadata. [site] is the {!Faults} site consulted for injection. *)

val fsync_dir : string -> unit
(** Best-effort fsync of a directory (persists renames within it). *)

(** {2 Group commit}

    A {!batch} stages writes in unsynced temp files ([.write*.tmp])
    next to their final paths. {!publish} then makes them durable in
    this order: sync, rename every temp to its final path, sync again.
    Data is on disk before any name points at it, so a file at its
    final name always holds complete bytes — even after an OS crash
    between the two syncs. A crash before the first sync leaves only
    temp files, which {!remove_stale_temps} deletes. *)

type sync =
  | Syncfs  (** one [syncfs(2)] on the batch root per sync step *)
  | Fsync_each
      (** [fsync] each staged temp, rename, then [fsync] each distinct
          directory (and the root) once — the fallback where [syncfs]
          is missing *)

val has_syncfs : unit -> bool
(** Whether the platform has [syncfs(2)] (Linux). *)

val default_sync : unit -> sync
(** [Syncfs] where {!has_syncfs}, otherwise [Fsync_each]. *)

type batch

val batch : ?sync:sync -> string -> batch
(** [batch root] opens an empty batch whose staged paths all lie on
    [root]'s filesystem. [sync] (default {!default_sync}) is the test
    hook that runs the fallback where [syncfs] exists. *)

val stage : batch -> site:string -> string -> string -> (unit, string) result
(** [stage b ~site path content] writes [content] to an unsynced temp
    file in [path]'s directory (created if missing); nothing appears at
    [path] until {!publish}. Consults {!Faults} at [site] like
    {!write_file_atomic}: a [Fail] leaves no temp file, a [Torn] write
    leaves its partial temp file behind and raises {!Faults.Injected}. *)

val staged : batch -> string -> string option
(** The temp file holding [path]'s staged content, if any. *)

val is_empty : batch -> bool

val unstage : batch -> string -> unit
(** Drop [path]'s staged write and remove its temp file. *)

val publish : batch -> (unit, string) result
(** Sync, rename every staged temp to its final path, sync again. On
    [Error] the temps not yet renamed stay staged for {!abort}. *)

val abort : batch -> unit
(** Remove every staged temp file. *)

val abandon : batch -> unit
(** Forget the staged temps without removing them — what a process
    that dies mid-batch leaves behind. *)

val remove_stale_temps : string -> int
(** [remove_stale_temps root] deletes every [.write*.tmp] file in
    [root]'s two-character fan-out directories, except the temps of
    this process's open batches, and returns how many it removed. *)
