(** Content-addressed blob storage over a pluggable {!Backend}.

    This layer owns integrity: it computes digests on {!put},
    re-verifies content against its digest on every {!get}, and keeps
    the store metrics — while the backend underneath decides where
    bytes physically live (local filesystem, memory, a remote peer,
    or a {!Replicated} quorum of all three).

    The default {!create} backend keeps the original on-disk layout:
    blobs under [<dir>/ab/cdef…] (two-character fan-out like Git).
    Writing is idempotent — equal content maps to an equal digest and
    is stored once, which is where whole-version deduplication
    (identical intermediate results, §1) comes for free.

    Durability (filesystem backend): single writes go through
    [Fsutil.write_file_atomic] (temp file, fsync, rename); writes
    inside a {!batch} are group-committed (unsynced temps, one sync,
    renames, a second sync). Either way a file at its digest path only
    ever holds complete bytes. Every
    {!get} re-verifies the content against its digest, so on-disk
    corruption surfaces as [Error] at the first read instead of
    silently corrupting every version downstream of a damaged
    delta. *)

type t

val create : dir:string -> (t, string) result
(** Open (creating directories as needed) an object store rooted at
    [dir] — a {!Backend.fs} backend. *)

val create_using :
  Versioning_util.Fsutil.sync -> dir:string -> (t, string) result
(** {!create} over {!Backend.fs_using}: the test hook for the [fsync]
    group-commit fallback. *)

val of_backend : Backend.t -> t
(** Wrap any backend (remote peer, replicated quorum, …). *)

val memory : unit -> t
(** A fresh private in-memory store (tests, scratch work). *)

val backend : t -> Backend.t
(** The underlying backend (for composing into {!Replicated}). *)

val put : ?stray:(string -> bool) -> t -> string -> (string, string) result
(** [put store content] writes the blob and returns its digest,
    hashing [content] once. Writing is atomic and fsynced (temp file +
    rename), or staged when inside a {!batch}; a failed write cleans
    up its temp file. Blobs are transparently LZ77-compressed on disk
    when that is smaller (like git's zlib packing); the digest always
    addresses the logical content.

    A blob already present is trusted without a read, unless the
    store is a plain filesystem store ({!create}) and [stray digest]
    (consulted only then; default: never) says nothing references it:
    a crash may have left that file torn, so it is deleted and written
    afresh. Other stores always trust it — a remote or replicated copy
    may belong to another writer, and replicas are verified and
    repaired by their own layer. *)

val batch : t -> (unit -> ('a, string) result) -> ('a, string) result
(** [batch store body] runs [body] as one group commit of its puts —
    [Backend.t]'s [batch]. On a filesystem store a batch of [n] new
    blobs costs two syncs instead of [2n]; nothing it wrote is
    addressable to another handle before [body] returns [Ok] and the
    publish succeeds. *)

val get : t -> string -> (string, string) result
(** Fetch a blob by digest. The content is verified against the
    digest on every read; corrupt blobs return [Error]. *)

val status : t -> string -> [ `Ok | `Missing | `Corrupt ]
(** Non-destructively classify a digest: present and digest-valid,
    absent, or present but unreadable / failing its digest. *)

val mem : t -> string -> bool

val delete : t -> string -> unit
(** Remove a blob if present (used by repack garbage collection). *)

val quarantine : t -> string -> (string, string) result
(** Move a (typically corrupt) blob out of the addressable store into
    [<dir>/quarantine/<digest>] for post-mortem inspection, and return
    the destination path. After quarantining, a fresh {!put} of the
    true content re-creates a good copy. *)

val path_of : t -> string -> string
(** On-disk path a digest maps to (for tooling and tests). Only
    meaningful for filesystem-backed stores; other backends return a
    ["<backend>/digest"] debug label. *)

val list_digests : t -> string list
(** All stored digests (the quarantine area is not included). *)

val remove_stale_temps : t -> int
(** Delete the [.write*.tmp] files a crash left in a filesystem
    store's fan-out directories (temps of this process's open batches
    excepted); returns how many. [0] for other stores. *)

val total_bytes : t -> int
(** Sum of on-disk blob sizes (after framing/compression) — the
    store's physical storage cost. *)
