(** Per-operation trace context, propagated across the client/server
    boundary as [traceparent] / [X-Dsvc-Request-Id] headers and inside
    a process as per-domain ambient state.

    A context is created once per client operation (or per server
    request when the client sent none), carries the head-based
    sampling decision for the {!Flight} recorder, and is read by
    {!Trace} to stamp every span with the active trace id. Contexts
    never feed program decisions: like the rest of lib/obs, this
    module is outside the R5 determinism scope (lint.toml) and is the
    sanctioned home for the randomness its ids need. *)

type t = {
  trace_id : string;  (** 32 lowercase hex chars *)
  request_id : string;
      (** 16 lowercase hex chars, or the (sanitized) client-sent id *)
  parent_span : int option;
      (** span id this operation continues; only meaningful within the
          process that allocated it — cross-process it is best-effort *)
  sampled : bool;  (** head-based flight-recorder sampling decision *)
}

val make : ?sampled:bool -> ?request_id:string -> unit -> t
(** Fresh context with random trace/request ids. [sampled] defaults to
    the head-based decision: every {!sample_interval}th call is
    sampled. *)

val to_traceparent : ?span:int -> t -> string
(** W3C trace-context header value,
    [00-<trace id>-<16-hex span id>-<01|00>]. [span] (default
    [parent_span] or 0) is the sender's current span id, so the
    receiver's spans can attach under it. *)

val of_traceparent : string -> t option
(** Parse a [traceparent] header. Returns [None] on anything
    malformed; the resulting context gets a fresh request id (the
    request id travels in [X-Dsvc-Request-Id], not [traceparent]). *)

val sanitize_id : string -> string option
(** Validate a client-sent request id before it reaches log lines and
    the /trace lookup table: trimmed, at most 64 chars, alphanumeric
    plus [-_.] only. *)

val with_context : t -> (unit -> 'a) -> 'a
(** Run with the given context as this domain's ambient context,
    restoring the previous one afterwards. *)

val with_current : t option -> (unit -> 'a) -> 'a
(** Like {!with_context} but can also clear the ambient context; used
    by [Pool] to re-seed worker domains with the caller's context. *)

val current : unit -> t option
val current_trace_id : unit -> string option
val current_request_id : unit -> string option

val sampled_now : unit -> bool
(** Whether the ambient context (if any) is flight-sampled. One DLS
    read — cheap enough for the hot path even when everything is
    off. *)

val sample_interval : int
(** The 1-in-N head-sampling interval: 8. *)
