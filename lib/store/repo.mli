(** The prototype dataset version-management system (§5: "we have
    built a prototype version management system, that will serve as a
    foundation to DATAHUB").

    A repository is a directory holding a content-addressed object
    store plus metadata: the version DAG (commits with one or more
    parents — merges are user-performed, and recorded by committing
    with two parents, exactly as the paper's prototype does), named
    branches, and the {e storage plan} mapping every version to either
    a full object or a delta against another version.

    Retrieval ({!checkout}) replays the delta chain; {!optimize}
    re-plans the whole store with any of the paper's algorithms and
    rewrites the objects — the library's storage/recreation tradeoff
    made operational.

    {b Durability and crash safety.} A repository is guarded by an
    exclusive lock file while open ([init]/[open_repo] fail when
    another process holds it; re-opening in the same process shares
    the lock). Metadata saves are atomic and fsynced, keep a [.bak]
    hardlink of the previous generation, and end with a trailer line
    so a torn write is detected as corruption rather than silently
    loading a prefix. {!optimize} runs a two-phase protocol (write
    objects as one group commit → journal old+new plans → swap
    metadata → verify → GC);
    a crash at any point is rolled forward or back by [open_repo],
    and {!repair} / {!fsck} recover from damage beyond that. *)

type t

type commit_info = {
  id : int;
  parents : int list;
  message : string;
  timestamp : float;
}

type stats = {
  n_versions : int;
  storage_bytes : int;  (** bytes of referenced objects *)
  n_full : int;  (** materialized versions *)
  n_delta : int;  (** delta-stored versions *)
  max_chain : int;  (** longest delta chain *)
  sum_recreation_bytes : float;
      (** Σ over versions of bytes read along its chain *)
  max_recreation_bytes : float;
}

type strategy =
  | Min_storage  (** Problem 1 — MCA *)
  | Min_recreation  (** Problem 2 — SPT *)
  | Budgeted_sum of float
      (** Problem 3 — LMG with storage budget = factor × MCA cost
          (factor > 1) *)
  | Bounded_max of float
      (** Problem 6 — MP with θ = factor × max SPT distance
          (factor ≥ 1) *)
  | Git_window of int * int  (** GitH with (window, max_depth) *)
  | Svn_skip  (** skip-delta chains in commit order *)

type weights =
  | Uniform  (** every version equally likely — the classic model *)
  | Observed
      (** the telemetry ledger's decayed access frequencies (DESIGN.md
          §15) feed LMG's workload-aware objective (Figure 16) *)

val init : path:string -> (t, string) result
(** Create an empty repository at [path] (directory is created; fails
    if a repository already exists there). The default branch is
    ["main"]. *)

val init_with : store:Object_store.t -> path:string -> (t, string) result
(** {!init} with an explicit blob store — cluster mode plugs the
    {!Replicated} quorum view in here; metadata, lock, and journal
    always stay on the local filesystem. *)

val open_repo : path:string -> (t, string) result
(** Open an existing repository: acquires the lock, loads metadata,
    and — if a crashed {!optimize} left a journal — rolls the
    interrupted re-plan forward (when its plan fully reconstructs) or
    back (otherwise). Fails if another process holds the lock. *)

val open_with : store:Object_store.t -> path:string -> (t, string) result
(** {!open_repo} with an explicit blob store (see {!init_with}). *)

val objects_dir : string -> string
(** The on-disk blob directory under a repository root (where a
    cluster node's {e local} store lives). *)

val object_store : t -> Object_store.t
(** The store this handle reads and writes blobs through. *)

val close : t -> unit
(** Persist the observability ledgers while the Obs gate is on (see
    {!flush_ledgers}; a failure is logged, not raised), then release
    the repository lock. The handle must not be used after. (The lock
    is also released when the process exits.) *)

val root : t -> string

(* -- committing and retrieving -- *)

val commit :
  t -> ?message:string -> ?parents:int list -> string -> (int, string) result
(** [commit repo content] records a new version of [content] and
    returns its id. Default parents: the current branch head (none
    for the first commit). Multiple [parents] record a user-performed
    merge. The new version is stored as a delta against its first
    parent when that is smaller than storing it in full. Advances the
    current branch. *)

val checkout : t -> int -> (string, string) result
(** Reconstruct a version's content.

    Checkouts go through a small per-handle LRU cache of materialized
    contents (default {!default_cache_slots} slots): a repeat checkout
    of a cached version is O(1), and a checkout whose delta chain
    passes through a cached ancestor replays only the suffix below
    it. Version contents are immutable once committed (optimize and
    repair only re-plan {e how} they are stored), so cached entries
    never go stale. Integrity paths ({!verify}, {!repair}, and
    optimize's post-swap verification) always bypass the cache and
    re-read the store. *)

val checkout_uncached : t -> int -> (string, string) result
(** {!checkout} without consulting or filling the cache — every byte
    is re-read from the object store. Use when the point is to observe
    the on-disk state (integrity checks, corruption tests). *)

val default_cache_slots : int
(** Default bound on cached materializations per open handle (16). *)

val set_cache_slots : t -> int -> unit
(** Re-bound the checkout cache; evicts down to the new bound
    immediately. [0] disables caching entirely (and drops all cached
    entries). Raises [Invalid_argument] on a negative bound. *)

type cache_stats = { hits : int; partial_hits : int; misses : int }
(** [hits]: checkouts served entirely from cache; [partial_hits]:
    chain walks that stopped early at a cached ancestor; [misses]:
    full replays from a materialized root. *)

val cache_stats : t -> cache_stats
(** Counters since the handle was opened. *)

val head : t -> int option
(** Head version of the current branch. *)

val log : t -> commit_info list
(** All commits, newest first. *)

val commit_info : t -> int -> commit_info option

(* -- branches & tags -- *)

val current_branch : t -> string
val branches : t -> (string * int) list

val tag : t -> string -> ?at:int -> unit -> (unit, string) result
(** Name a version permanently (does not move with commits).
    @raise nothing; [Error] on duplicates or unknown versions. *)

val tags : t -> (string * int) list
val resolve : t -> string -> int option
(** Resolve a tag or branch name (tags first), or a numeric string. *)

val create_branch : t -> string -> ?at:int -> unit -> (unit, string) result
(** Create a branch (at [at] or the current head) and switch to it. *)

val switch : t -> string -> (unit, string) result

(* -- inspection & integrity -- *)

val diff : t -> int -> int -> (string, string) result
(** Line diff between two versions, in the store's wire format — what
    would be stored if the second were delta'd against the first. *)

val verify : t -> (unit, string list) result
(** Full integrity check: every version reconstructs, every referenced
    object exists and matches its digest, chains are acyclic. [Error]
    lists every problem found. *)

val materialize_all :
  t ->
  Meta.stored Meta.Int_map.t ->
  get:(string -> (string, string) result) ->
  (int -> (string, string) result -> unit) ->
  unit
(** [materialize_all repo plan ~get f] calls [f v r] for every version
    of [plan], [r] being exactly what {!checkout_uncached} returns for
    [v] under that plan, error text included. One cache-free walk,
    depth-first from each full object (ascending id) down its delta
    children: each stored object is read through [get] and applied
    once, so the pass costs the plan's storage cost rather than its
    recreation sum, and only the contents on the current root-to-node
    path are held. A failing version's error is its whole subtree's;
    a version no full object reaches (missing parent, delta cycle)
    gets its chain's structural error without any read. [get] must
    behave as {!Object_store.get} on {!object_store}; the integrity
    passes ({!verify}, {!check_all_versions}, {!optimize}'s load and
    verify steps) pass one that reads each digest once per call. *)

val check_all_versions :
  t -> Meta.stored Meta.Int_map.t -> (unit, string) result
(** Whether every version of a plan reconstructs — what {!optimize}
    checks after its swap and journal recovery checks before rolling
    forward or back. [Error "version V: E"] names the smallest failing
    version. One {!materialize_all} walk. *)

val import_versions :
  t -> (string * int list * string) list -> (int list, string) result
(** Bulk commit: a list of [(message, parents, content)] — parent ids
    may refer to earlier entries of the same batch via their eventual
    ids. The current branch advances to the last imported version.
    Saves metadata once at the end, so large imports don't rewrite the
    meta file per version. A parent from the same batch is diffed
    against its entry's content without reading the store; the objects
    written are the ones committing the entries one at a time writes.
    With more than one entry they are group-committed
    ({!Object_store.batch}: two syncs in all) before the save. *)

(* -- storage management -- *)

val stats : t -> stats

val storage_parents : t -> (int * int) list
(** The current storage plan as [(parent, child)] pairs, parent 0 =
    materialized — the solution [P] in the paper's notation. *)

val hop_pairs : t -> max_hops:int -> (int * int) list
(** Ordered version pairs within [max_hops] of each other in the commit
    DAG, both directions, in the order {!reveal_graph} diffs them. *)

val reveal_graph :
  t ->
  ?max_hops:int ->
  ?extra_pairs:(int * int) list ->
  ?jobs:int ->
  unit ->
  (Versioning_core.Aux_graph.t * string array, string) result
(** The repository's revealed ⟨Δ, Φ⟩ instance: materialization costs
    from version sizes and line-diff deltas between versions within
    [max_hops] of each other in the commit DAG (plus [extra_pairs]).
    Also returns the contents array (index [1..n]). This is the
    problem instance {!optimize} solves; export it with
    {!Versioning_core.Graph_io} for offline analysis. [jobs] (default
    {!Versioning_util.Pool.default_jobs}) parallelizes the pair
    diffs — the dominant cost — over the domain pool; the revealed
    graph is identical for every value. Each version's lines are
    interned once per call ({!Versioning_delta.Line_diff.intern}) and
    every pair is priced from them, so each delta's Δ is exactly
    [Line_diff.size (Line_diff.diff contents.(u) contents.(v))]. *)

val optimize :
  t ->
  ?max_hops:int ->
  ?jobs:int ->
  ?check:bool ->
  ?weights:weights ->
  strategy ->
  (stats, string) result
(** Re-plan storage for all versions: reveal deltas between versions
    within [max_hops] (default 3) of each other in the version DAG,
    run the strategy's algorithm, rewrite objects, and garbage-collect
    unreferenced blobs. [check] (default false, [dsvc optimize
    --check-solutions]) runs {!Versioning_core.Solution_check} on the
    solver's plan against the revealed graph before any object is
    written, refusing to rewrite storage from an invalid solution.
    [jobs] (default
    {!Versioning_util.Pool.default_jobs}) parallelizes the diff and
    delta-encoding phases (and GitH's candidate gather); the resulting
    storage plan is byte-identical for every value — object writes and
    fault-injection sites stay sequential in plan order.

    Crash-safe: new objects are written first (old ones untouched) and
    made durable by one group commit, then both the old and intended
    storage maps are journaled, then
    the metadata is atomically swapped, then every version is
    verified to reconstruct — only after all of that are the journal
    and unreferenced blobs removed. A crash in between is recovered
    by the next {!open_repo}; a verification failure rolls back.

    [weights] (default [Uniform], [dsvc optimize --weights]) switches
    the [Budgeted_sum] (LMG) objective to the access-frequency-
    weighted recreation sum using {!observed_freqs}; with an empty
    ledger, or for any other strategy, the plan is identical to the
    uniform one. *)

(* -- workload telemetry (DESIGN.md §15) -- *)

val telemetry : t -> Versioning_obs.Telemetry.t
(** The handle's per-version access ledger. Checkouts are counted
    unconditionally (clock-free); recreation costs are observed only
    while [Obs.enabled]. Loaded from [.dsvc/telemetry] at open and
    merged across sessions (a corrupt file is ignored). *)

val timeseries : t -> Versioning_obs.Timeseries.t
(** The handle's metrics time-series ring (DESIGN.md §16), fed by the
    server's reactor sampler. Loaded from [.dsvc/timeseries] at open
    (a readable file replaces the fresh ring; a corrupt one is
    ignored). *)

val flush_ledgers : t -> (unit, string) result
(** Persist the telemetry ledger, if it changed since the last flush
    ([Fsutil.write_file_atomic ~site:"telemetry.save"]), and the
    time-series ring, if non-empty ([~site:"timeseries.save"]). Both
    writes are attempted; the first failure is returned. {!close}
    calls this while the Obs gate is on; with the gate off neither
    file is ever written. *)

val predicted_costs : t -> (int * float) list
(** The current plan's per-version recreation cost in stored bytes
    (Σ object sizes along each delta chain), ascending id — the
    predicted Φ that observations are calibrated against. *)

val drift_score : t -> float
(** {!Versioning_obs.Telemetry.drift} of the ledger against
    {!predicted_costs}: 0 for a workload matching the uniform planning
    assumption, growing as accesses concentrate on expensive versions.
    Walks every stored object (remote reads in cluster mode); the
    result is cached on the handle for {!export_telemetry}. *)

val observed_freqs : t -> float array option
(** Normalized decayed access frequencies indexed [1..n] (index 0
    unused), floored at 1% of uniform; [None] while the ledger is
    empty. This is what [weights:Observed] feeds LMG. *)

val export_telemetry : t -> unit
(** Push ledger gauges and the drift score into the default metrics
    registry (labelled by repository root). No-op while the gate is
    off. Memory-only: the drift gauge carries the last {!drift_score}
    result (0 until one has been computed) — safe to call per request
    under the server's repository lock, even in cluster mode. *)

type drifted = {
  d_version : int;
  d_share : float;  (** observed access share p̂(v) *)
  d_phi : float;  (** predicted recreation cost under the current plan *)
  d_contribution : float;  (** |p̂(v) − 1/n|·Φ(v), its drift-numerator term *)
}

type advice = {
  a_drift : float;
  a_threshold : float;
  a_events : int;  (** ledger accesses the advice is based on *)
  a_top : drifted list;  (** most-mispriced versions, worst first *)
  a_current_weighted : float;
      (** access-weighted Σ recreation of the current plan *)
  a_candidate_weighted : float;
      (** same, for an LMG re-plan under observed frequencies at the
          storage budget the current plan already spends *)
  a_saving : float;  (** relative saving of the candidate, 0..1 *)
  a_recommend : bool;
      (** drift past threshold and the candidate actually cheaper *)
}

val advise :
  t ->
  ?max_hops:int ->
  ?jobs:int ->
  ?threshold:float ->
  ?k:int ->
  unit ->
  (advice, string) result
(** Read-only re-optimization advice: re-derive the current plan's
    predicted Φ on the revealed graph (validated by [Solution_check]),
    score workload drift, and price a candidate re-plan under observed
    frequencies. [threshold] (default 0.5) gates the recommendation;
    [k] (default 5) bounds [a_top]. *)

(* -- repair -- *)

type repair_report = {
  quarantined : string list;
      (** digests of corrupt blobs moved to the quarantine area *)
  rematerialized : int list;
      (** versions whose broken chains were rebuilt as full objects *)
  unrecoverable : int list;
      (** versions no surviving object can reconstruct *)
  strays_removed : int;  (** unreferenced blobs GC'd (0 unless fully repaired) *)
}

val repair : t -> (repair_report, string) result
(** Best-effort recovery: quarantine digest-failing blobs, then
    recover every version content still reachable over intact delta
    edges — across the current storage map {e and} any pending
    optimize journal's old/new maps — and re-materialize broken
    versions as full objects. Unreferenced blobs are only collected
    when every version was recovered; stale [.write*.tmp] files left
    by a crashed write are always removed. *)

type fsck_result = {
  actions : string list;  (** what repair did (empty without [~repair:true]) *)
  problems : string list;  (** what {!verify} still reports afterwards *)
}

val fsck : path:string -> repair:bool -> (fsck_result, string) result
(** Check (and with [~repair:true], repair) the repository at [path].
    Repair mode can additionally restore the metadata file from its
    [.bak] generation when the current one is torn or corrupt (the
    damaged file is kept as [meta.corrupt]). *)

val fsck_with :
  store:Object_store.t ->
  path:string ->
  repair:bool ->
  (fsck_result, string) result
(** {!fsck} against an explicit store — pass a {!Replicated} view to
    check a cluster node that holds only its shard locally. *)

(* -- metadata replication (cluster mode) -- *)

val generation : t -> int
(** Monotonic metadata generation: bumped on every durable save,
    recorded in the meta file ([gen N]; 0 for pre-cluster repos). *)

val export_meta : t -> (string, string) result
(** The current on-disk metadata bytes, for pushing to peers
    ([POST /meta/sync]). Byte-identical adoption keeps every node's
    meta file directly comparable. *)

val adopt_meta : t -> string -> (bool, string) result
(** Adopt pushed metadata if it parses and its generation is strictly
    newer than ours ([Ok true]); otherwise leave state untouched
    ([Ok false] — stale or duplicate pushes are idempotent no-ops).
    The single-writer model (DESIGN.md §12): one node accepts
    mutations at a time, so newest-generation-wins cannot lose
    concurrent updates. *)

val referenced_digests : t -> string list
(** Every digest the current storage map references (anti-entropy's
    work list). *)

val journal_pending : t -> bool
(** Whether an interrupted-optimize journal is still on disk (surfaced
    by [GET /health]). *)
