(** Pluggable blob storage behind {!Object_store}.

    A backend is a record of closures moving {e logical} blob content
    keyed by digest — it neither computes nor verifies digests (that
    stays in {!Object_store} and {!Replicated}, the layers that own
    integrity), and callers must pass digests that already passed
    {!Content_hash.is_valid}. Three families exist:

    - {!fs} — the original on-disk layout (two-character fan-out,
      'R'/'C' framing, atomic fsynced writes through
      [Fsutil.write_file_atomic], fault site ["object_store.write"];
      inside a [batch], puts are staged and group-committed through
      [Fsutil.publish], fault site ["object_store.sync"]);
    - {!memory} — a hashtable holding identically framed bytes,
      consulting the same fault sites and staging batches the same
      way, so equivalence tests can replay one op sequence against
      both under identical injected failures;
    - [Client.backend] — a remote peer's store over HTTP [/blob]
      routes (defined in {!Client} to keep the dependency direction:
      backend knows nothing about the network).

    {!Replicated.backend} composes several of these into a quorum view
    with the same interface, which is how the rest of the system stays
    oblivious to whether it runs single-node or clustered. *)

type t = {
  name : string;  (** stable label for logs, metrics and ring debug *)
  put : digest:string -> string -> (unit, string) result;
      (** store logical [content] under [digest]; idempotent — a
          backend already holding the digest returns [Ok] without
          rewriting *)
  get : digest:string -> (string, string) result;
      (** logical content, or [Error] when absent/unreadable *)
  mem : digest:string -> bool;
  delete : digest:string -> unit;  (** best-effort; absent is fine *)
  list : unit -> (string * int) list;
      (** all [(digest, physical_size)] pairs, quarantine excluded *)
  total_bytes : unit -> int;  (** physical bytes after framing *)
  quarantine : digest:string -> (string, string) result;
      (** move a blob out of the addressable namespace; returns a
          human-readable destination *)
  ping : unit -> (unit, string) result;
      (** cheap liveness probe, used by the failure detector *)
  batch : 'a. (unit -> ('a, string) result) -> ('a, string) result;
      (** [batch body] runs [body] as one group commit. On {!fs} and
          {!memory}, [put]s inside it are staged: [mem] and [get] see
          them, [list] does not, and nothing is durable or addressable
          to another handle until [body] returns [Ok]. Then the
          ["object_store.sync"] fault site is consulted once (if
          anything was staged) and the staged blobs are published —
          on {!fs}: one sync, every rename, a second sync. An [Error]
          from [body], the site or the publish, or an exception,
          removes the staged blobs; an injected crash
          ([Faults.Injected]) forgets them without cleanup, as a dying
          process would, leaving temp files for [gc]. A nested batch
          joins the open one. Remote and replicated backends run
          [body] unchanged: their puts keep per-request durability. *)
}

val unbatched : (unit -> ('a, string) result) -> ('a, string) result
(** [batch] for backends without staging: runs the body. *)

val fs : dir:string -> (t, string) result
(** Filesystem backend rooted at [dir] (created if missing). Batches
    publish with [Fsutil.default_sync ()]. *)

val fs_using : Versioning_util.Fsutil.sync -> dir:string -> (t, string) result
(** {!fs} with its batches' sync method pinned — the test hook that
    runs the [fsync] fallback where [syncfs] exists. *)

val fs_path : dir:string -> string -> string
(** The on-disk path a digest maps to under {!fs}'s layout (pure;
    for tooling and tests). *)

val memory : unit -> t
(** Fresh private in-memory backend. *)

val frame : string -> string
(** Physical framing applied by {!fs} and {!memory} ('R' raw or 'C'
    LZ77-compressed, whichever is smaller). Exposed for tests that
    assert on physical sizes. *)

val unframe : string -> (string, string) result
