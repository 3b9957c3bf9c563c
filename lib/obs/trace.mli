(** Scoped spans with a bounded in-memory ring buffer and optional
    Chrome trace_event export.

    All entry points are no-ops while {!Obs.enabled} is false — no
    clock or [Gc.allocated_bytes] reads happen — with one deliberate
    exception: when the ambient {!Context} was head-sampled for the
    flight recorder, {!with_span} still times the call and records it
    to {!Flight} (and nowhere else). Nesting is per-domain; {!Pool}
    plumbs the caller's span id into worker domains with
    {!with_parent} so parallel spans attach to the right parent. Each
    recorded span is stamped with the ambient context's trace id,
    tying client- and server-side spans of one request into a single
    trace. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** seconds since epoch *)
  dur : float;  (** seconds *)
  domain : int;
  alloc : float;  (** bytes allocated by this domain during the span *)
  trace : string option;  (** ambient {!Context} trace id, if any *)
}

val with_span : ?parent:int -> string -> (unit -> 'a) -> 'a
(** Run the function inside a span. The parent defaults to the
    innermost open span on the current domain. Exceptions propagate;
    the span is recorded either way. *)

val current_id : unit -> int option
(** Innermost open span id on this domain ([None] when disabled). *)

val with_parent : int option -> (unit -> 'a) -> 'a
(** Run with the domain's span stack re-seeded to the given parent —
    used by [Pool] workers so their spans nest under the caller's. *)

val spans : unit -> span list
(** Completed spans, oldest first (bounded: most recent
    {!capacity}). *)

val span_count : unit -> int
(** Total spans recorded since start/reset (may exceed the ring). *)

val reset : unit -> unit

val capacity : unit -> int
(** Current ring capacity: {!default_capacity} at startup, or the
    last {!set_capacity}. *)

val default_capacity : int
(** 8192 spans. *)

val set_capacity : int -> unit
(** Replace the ring with an empty one of the given capacity
    (resetting recorded spans). Raises [Invalid_argument] outside
    [[16, 1048576]]. A hook for tests and benchmarks that record more
    spans than the default ring holds. *)

val to_chrome_json : unit -> string
(** Render the ring as Chrome [trace_event] JSON. The caller writes
    the file (via [Fsutil]); this library never touches disk. *)

val chrome_json_of_spans : span list -> string
(** {!to_chrome_json} over an explicit span list (golden tests, or
    exporting a filtered trace). *)

type agg = {
  agg_name : string;
  count : int;
  total_s : float;
  total_alloc : float;
}

val summarize : unit -> agg list
(** Aggregate completed spans by name, sorted by total time
    descending — the [dsvc optimize --profile] table. *)

val summarize_spans : span list -> agg list
(** {!summarize} over an explicit span list (e.g. the spans of one
    trace id, for the server's [/trace/:request_id] endpoint). *)
