(** Always-on flight recorder: a bounded in-memory ring of recent
    spans and log records, independent of the {!Obs} gate, so
    post-mortems work even when full tracing was off.

    Spans land here only when the ambient {!Context} was head-sampled
    (1 in {!Context.sample_interval} operations); log records are
    always kept. The ring is invisible in normal operation — it is
    only ever serialized by {!to_json} when a caller dumps it on
    crash, SIGTERM, or [dsvc flight-dump]. Like the rest of lib/obs,
    this module never touches disk. *)

type kind = Span | Log

type event = {
  ev_ts : float;  (** seconds since epoch *)
  ev_kind : kind;
  ev_name : string;  (** span name, or log source *)
  ev_detail : string;  (** empty for spans; the message for logs *)
  ev_dur : float;  (** seconds; 0 for logs *)
  ev_level : string;  (** ["span"] for spans; the log level otherwise *)
  ev_trace : string;  (** empty when no ambient context was active *)
  ev_request : string;
}

val capacity : int
(** Ring size (last-K events kept). *)

val record_span : name:string -> start:float -> dur:float -> unit
(** Record a completed span, stamping the ambient trace/request ids.
    Called by {!Trace.with_span} when the context is sampled. *)

val record_log : level:string -> src:string -> string -> unit
(** Record a log line (called by the {!Logctx} reporter). *)

val events : unit -> event list
(** Recorded events, oldest first (bounded: most recent {!capacity}). *)

val event_count : unit -> int
(** Total events recorded since start/reset (may exceed the ring). *)

val reset : unit -> unit

val to_json : unit -> string
(** Serialize the ring as a JSON document. The caller writes the file
    (via [Fsutil]); this library never touches disk. *)

val default_path : unit -> string
(** Dump destination: [DSVC_FLIGHT_PATH], or [dsvc-flight.json]. *)
