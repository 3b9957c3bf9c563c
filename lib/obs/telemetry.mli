(** Per-version workload telemetry: the access ledger behind the
    cost-model drift observatory (DESIGN.md §15).

    A ledger records, per version id, how often the version was
    checked out, how often the checkout was served from the
    materialization cache, a decayed access frequency, and — only
    while {!Obs.enabled} — the observed recreation cost (wall-clock
    seconds and bytes materialized along the delta chain) with an
    exemplar trace id. A bounded ring of recent cost samples supports
    p50/p99 observed-vs-predicted views.

    Determinism: frequency decay is indexed by the ledger's own event
    counter, never by a clock, so counting is byte-deterministic and
    runs unconditionally. The only clock in this module is {!clock},
    which returns [None] while the gate is off — cost observation is
    therefore impossible to trigger from an un-instrumented run, and
    plans stay byte-identical (the DESIGN.md §10 contract: telemetry
    reads state; only an explicit [--weights observed] feeds it back).

    Concurrency: a ledger is not internally synchronized. [Repo]
    owns one per handle and serializes access exactly as it does its
    own mutable caches (repository lock / server executor).

    Persistence: the module renders and parses strings only; file I/O
    stays with the caller ([Repo] uses [Fsutil.write_file_atomic
    ~site:"telemetry.save"]), keeping lib/obs free of raw writes. *)

type entry = private {
  mutable checkouts : int;  (** total checkout requests for the version *)
  mutable cache_hits : int;  (** of which served whole from the LRU cache *)
  mutable freq : float;
      (** decayed access weight as of [freq_at]; read it via
          {!freq_of}, which settles it to the current event count *)
  mutable freq_at : int;  (** event index of the last [freq] update *)
  mutable observations : int;  (** gated cost observations recorded *)
  mutable seconds : float;  (** Σ observed recreation wall-clock *)
  mutable bytes : float;  (** Σ observed bytes materialized *)
  mutable exemplar : string;  (** one trace id to pivot into, [""] if none *)
}

type sample = {
  version : int;
  s_seconds : float;
  s_bytes : float;
  s_predicted : float;  (** the plan's Φ for the version at observation time *)
}

type t

val default_decay : float
(** Per-event frequency decay (0.995): an access half-lives after
    ~139 subsequent ledger events. *)

val default_max_entries : int
(** Bound on tracked versions (4096); beyond it the coldest entry is
    evicted. *)

val default_ring : int
(** Bound on retained recent cost samples (512). *)

val create : ?decay:float -> ?max_entries:int -> ?ring:int -> unit -> t

val events : t -> int
(** Total accesses the ledger has counted. *)

val decay : t -> float
val is_empty : t -> bool

val entry : t -> int -> entry option
val entries : t -> (int * entry) list
(** All tracked versions, ascending id. *)

val samples : t -> sample list
(** Recent cost samples, oldest first, bounded by the ring size. *)

val freq_of : t -> int -> float
(** The version's decayed access weight settled to the current event
    count; [0.] for untracked versions. *)

val hot : t -> k:int -> (int * entry) list
(** The [k] highest-frequency versions, hottest first (ties by id). *)

val bump_checkout : t -> int -> cached:bool -> unit
(** Count one checkout. Unconditional, clock-free, allocation-light —
    this is the single counter increment the checkout hot path pays
    while observability is off. *)

val clock : unit -> float option
(** [Some (now)] while {!Obs.enabled}, else [None]. The only clock
    read in the telemetry layer; callers time a recreation as
    [match clock () with None -> ... | Some t0 -> ...] so the off
    path never reaches a time syscall. *)

val record_recreation :
  t ->
  int ->
  seconds:float ->
  bytes:float ->
  predicted:float ->
  ?trace:string ->
  unit ->
  unit
(** Record one observed recreation: cost sums, the sample ring, the
    exemplar trace id, and (to the default metrics registry) the
    [dsvc_obs_recreation_*] histograms plus the calibration-error
    histogram [|bytes − predicted| / predicted]. Callers only reach
    this with a [Some] from {!clock}, i.e. while the gate is on. *)

val drift : t -> costs:(int * float) list -> float
(** The drift score [D] (DESIGN.md §15): with [p̂(v)] the ledger's
    normalized decayed frequencies and [Φ(v)] the given per-version
    recreation costs over [n] versions,

    {v D = Σ_v |p̂(v) − 1/n| · Φ(v)  /  ((1/n) · Σ_v Φ(v)) v}

    — the cost-weighted total-variation distance between the observed
    access distribution and the uniform one every [optimize] run
    assumes. [0.] when the ledger is empty or [costs] is. *)

val merge : t -> t -> t
(** Commutative union: event counts and cost sums add, each side's
    frequencies are settled to its own event count before adding,
    exemplars keep the lexicographic max, sample rings union
    deterministically. Bounds are the max of the two sides'. *)

val equal : t -> t -> bool

val render : t -> string
(** Deterministic {!Line_file} format ([telemetry 1] header, [end]
    trailer); floats as hex so {!parse} is an exact inverse. *)

val parse : string -> (t, string) result
(** Inverse of {!render}. A missing or foreign header, a torn file or
    a malformed line is an [Error]. *)

val export : ?registry:Metrics.t -> t -> repo:string -> drift:float -> unit
(** Push ledger-level gauges ([dsvc_obs_ledger_*],
    [dsvc_store_drift_score]) labelled with the repository root. *)
