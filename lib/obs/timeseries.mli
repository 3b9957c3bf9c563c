(** Bounded, tiered ring of periodic metric samples (DESIGN.md §16).

    The durable half of the cluster health observatory: the background
    sampler records one value per live metric series per step into
    three downsampling tiers (step, 10·step, 100·step), each a bounded
    ring, so a 5 s step retains ~30 min at full resolution, ~5 h at
    10× and ~2 days at 100× in constant memory. {!query} serves the
    finest tier whose retention covers the requested span.

    Determinism: every operation that needs a time takes [~now] — the
    module never reads a clock. Persistence is string-level only
    ({!render}/{!parse}, hex floats, [end] trailer); [Repo] owns the
    [.dsvc/timeseries] file via Fsutil ([~site:"timeseries.save"]).
    All entry points are mutex-guarded: the reactor-timer tick records
    while server handler threads query. *)

type t

type sample = {
  s_time : float;  (** bucket start, absolute seconds *)
  s_count : int;  (** observations aggregated into the bucket *)
  s_avg : float;
  s_min : float;
  s_max : float;
  s_last : float;
}

val default_step : unit -> float
(** The sampling step: [DSVC_TS_STEP] through {!Obs.env_float}
    (min 0.01 s), default 5 s. *)

val create : ?step:float -> ?cap:int -> ?max_series:int -> unit -> t
(** [cap] bounds each tier's ring (default 360 buckets); [max_series]
    (default 512) hard-caps distinct series — records for new names
    beyond it are dropped, so an upstream label-cardinality explosion
    costs data, never memory. [step] defaults to {!default_step}.
    Raises [Invalid_argument] on non-positive values. *)

val step : t -> float

val record : t -> now:float -> metric:string -> float -> unit
(** Fold one observation into the series' current bucket in every
    tier (count/sum/min/max/last). NaN values are dropped. *)

val metrics : t -> string list
(** Sorted names of every live series. *)

val series_count : t -> int
val is_empty : t -> bool

val query :
  t -> metric:string -> ?since:float -> now:float -> unit -> sample list
(** Samples oldest-first from the finest tier whose retention covers
    [now - since] (default [since]: one fine-tier retention back);
    buckets ending at or before [since] are excluded. Unknown metrics
    yield []. *)

val avg : t -> metric:string -> window:float -> now:float -> float option
(** Observation-weighted mean over the trailing window — what the
    alert rules evaluate. [None] when the window holds no samples. *)

val latest : t -> metric:string -> float option
(** The newest recorded value of a series, if any. *)

val render : t -> string
(** Deterministic {!Line_file} text ([timeseries 1] header, hex
    floats, series sorted by name, buckets oldest-first, [end]
    trailer). *)

val parse : string -> (t, string) result
(** Inverse of {!render}; a missing or foreign header and any
    malformed or truncated input are an [Error], so a torn file is
    detected, never half-adopted. *)

val equal : t -> t -> bool

val sparkline : float list -> string
(** Render values as a row of U+2581..U+2588 block glyphs scaled to
    the list's min/max (flat series render mid-height). The dash
    TUI's plotting primitive, kept here so it is testable. *)
