(** HTTP client for a served repository — the other half of the
    paper's client–server prototype (its client was a separate
    program; this one is a typed OCaml API over {!Server}'s routes).

    Connections are persistent (HTTP/1.1 keep-alive): each client
    caches one open connection and reuses it across requests,
    reconnecting transparently when the server has closed it in the
    meantime. Non-2xx responses surface as [Error] with the server's
    message. A client is safe to share between threads — requests
    serialize on an internal lock.

    Resilience: sockets carry send/receive timeouts; transient
    transport failures (connection refused/reset, timeouts) are
    retried with exponential backoff and jitter ({!Versioning_util.Retry}).
    Failures after the request was sent — including a kept-alive
    connection dying mid-request ({!Stale_connection}) — are only
    retried for idempotent methods (GET/DELETE); a retried POST could
    apply twice.

    Tracing (DESIGN.md §11): every operation runs under a
    {!Versioning_obs.Context} — the caller's ambient one when present,
    otherwise a fresh one — and sends it as [traceparent] /
    [X-Dsvc-Request-Id] headers so the server's spans and access log
    join the client's trace. The request id is stable across retries
    of one operation. Request/retry counters are labelled by method
    and response status / failure stage. *)

type t

val connect :
  ?timeout:float ->
  ?retries:int ->
  ?keepalive:bool ->
  host:string ->
  port:int ->
  unit ->
  t
(** Records the endpoint; the first request opens the connection.
    [host] may be a numeric address or a DNS name (resolved per
    request via [getaddrinfo]). [timeout] (default 10s) bounds each
    socket operation; [retries] (default 3) caps transport-level
    attempts; [keepalive] (default true) keeps the connection open
    between requests — pass [false] to force one connection per
    request (the pre-event-loop behaviour). *)

val close : t -> unit
(** Drop the cached connection, if any. The client stays usable (the
    next request reconnects). *)

(** {2 Typed transport errors} *)

type error_kind =
  | Resolve  (** host name did not resolve *)
  | Connect  (** could not reach the server *)
  | Io  (** the exchange failed on a fresh connection *)
  | Stale_connection
      (** a reused (kept-alive) connection died mid-request: the
          server closed it between or during requests. Retryable by
          reconnecting — but only for idempotent methods, which is
          exactly what [transient] encodes. *)

type error = {
  kind : error_kind;
  transient : bool;  (** safe to retry (method-aware) *)
  message : string;
  stage : string;  (** "resolve" | "connect" | "io" | "reuse" *)
}

val request_detailed :
  t ->
  meth:string ->
  path:string ->
  ?query:(string * string) list ->
  ?body:string ->
  unit ->
  (int * string, error) result
(** {!request} with the typed transport error preserved. *)

val versions : t -> ((int * int list * string) list, string) result
(** [(id, parents, message)] per commit, newest first. *)

val checkout : t -> string -> (string, string) result
(** By id, tag, or branch name. *)

val commit :
  t -> ?message:string -> ?parents:int list -> string -> (int, string) result

val stats : t -> ((string * string) list, string) result
(** The stats fields as key–value pairs, as served. *)

val optimize : t -> string -> ((string * string) list, string) result
(** [optimize t "balanced=1.5"] etc.; returns the post-repack stats. *)

val diff : t -> string -> string -> (string, string) result

val tag : t -> string -> ?at:int -> unit -> (unit, string) result
val branch : t -> string -> ?at:int -> unit -> (unit, string) result
val switch : t -> string -> (unit, string) result
val verify : t -> (unit, string) result

val request :
  t ->
  meth:string ->
  path:string ->
  ?query:(string * string) list ->
  ?body:string ->
  unit ->
  (int * string, string) result
(** Raw escape hatch: returns [(status, body)]. [path] goes on the
    wire as written, so its segments must already be percent-encoded. *)

(** {2 Cluster support} *)

val endpoint : t -> string
(** ["host:port"] — the peer's name on the {!Ring}. *)

val ping : t -> (unit, string) result
(** Cheap liveness probe against [GET /health]: single attempt, no
    backoff (the {!Detector}'s probe must see real flakiness, not a
    retried success). *)

val health : t -> ((string * string) list, string) result
(** The [GET /health] fields (status, journal, generation, ring
    epoch, per-peer view) as key–value pairs. *)

val get_blob : t -> string -> (string, string) result
val put_blob : t -> digest:string -> string -> (unit, string) result
val mem_blob : t -> string -> bool
val delete_blob : t -> string -> unit

val list_blobs : t -> (string * int) list
(** [(digest, physical_size)] pairs from the peer's local store; an
    unreachable peer yields []. *)

val anti_entropy : t -> ((string * string) list, string) result
(** Ask the peer to run an anti-entropy sweep; returns its report. *)

val push_meta : t -> string -> (bool, string) result
(** Push repository metadata ([POST /meta/sync]); [Ok true] when the
    peer adopted it, [Ok false] when it was stale for the peer. *)

val fetch_meta : t -> (string, string) result
(** The peer's current metadata bytes ([GET /meta]). *)

val backend : t -> Backend.t
(** The peer's {e local} blob store as a {!Backend.t} over the
    [/blob] routes — what {!Replicated} composes into a quorum. *)
