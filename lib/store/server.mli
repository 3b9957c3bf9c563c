(** The prototype's HTTP interface (§5: "users interact with the
    version management system in a client-server model over HTTP").

    Routes, in {!routes} order, each with its {!access} class (all
    responses [text/plain] unless noted):

    - [GET /versions] (Read) — one line per commit: [id parents message]
    - [GET /checkout/:name] (Read) — the bytes of a version id, tag or
      branch
    - [POST /commit?message=…&parents=1,2] (Write) — body is the
      content; [201] with the new id
    - [GET /stats] (Read) — the {!Repo.stats} fields, one per line
    - [GET /branches] (Read), [POST /branch/:name?at=<id>] (Write),
      [POST /switch/:name] (Write)
    - [GET /tags] (Read), [POST /tag/:name?at=<id>] (Write)
    - [GET /diff/:a/:b] (Read) — encoded line delta
    - [POST /optimize?strategy=<s>] (Write) — [min-storage],
      [min-recreation], [balanced=F], [bounded-max=F], [git], [svn]
    - [GET /verify] (Read)
    - [GET /metrics] (Obs) — Prometheus text, or JSON with
      [?format=json] ({!metrics_json_with_meta})
    - [GET /metrics/cluster] (Obs) — this node's registry plus a live
      fan-out to every peer's [GET /metrics], each sample re-labelled
      [peer="<name>"], one [dsvc_cluster_scrape_up{peer=…}] gauge per
      node and a [# peer <name> unreachable: …] line per dead peer
    - [GET /timeseries] (Obs) — the sampled metric history (DESIGN.md
      §16): the series names, or with [?metric=…&since=<seconds-back>]
      one [time count avg min max last] line per bucket
    - [GET /alerts] (Obs) — [name state since=… value=…] per rule, with
      [suppressed="…"] for rules muted via [DSVC_ALERT_SUPPRESS]
    - [GET /trace/:request_id] (Obs) — JSON span summary of a recent
      request ([404] once evicted from the bounded ring)
    - [GET /flight] (Obs) — the {!Versioning_obs.Flight} ring as JSON
    - [GET /health] (Read) — store reachability, journal state,
      generation, [build]/[ocaml]/[uptime_s] provenance, and (cluster
      mode) ring epoch, replicas, pending hints and per-peer state
    - [GET /blob/:digest], [GET /blob/:digest/stat],
      [POST /blob/:digest] (body must hash to the digest; [409]
      otherwise), [POST /blob/:digest/quarantine],
      [DELETE /blob/:digest], [GET /blobs] (all Read) — the node's
      {e local} shard, never the replicated view, so replication cannot
      recurse (DESIGN.md §12)
    - [GET /meta], [POST /meta/sync] (Read) — metadata replication,
      generation-gated and idempotent
    - [POST /anti-entropy] (Read) — push metadata to peers, then restore
      full replication of every referenced digest ([500] listing the
      failures if any digest stays under-replicated)

    The path is matched still percent-encoded: it is split on [/] and
    each segment decoded, so [/checkout/release%2F1.0] names the ref
    [release/1.0]. A path no template matches is [404]; one matched
    only under other methods is [405] with an [Allow] header.

    {!handle} is the pure request router (unit-testable without
    sockets); {!serve} runs the accept loop.

    Tracing (DESIGN.md §11): {!handle_safe} extracts the client's
    [traceparent] / [X-Dsvc-Request-Id] headers into an ambient
    {!Versioning_obs.Context} (minting a fresh one when absent), runs
    the handler under a [server.request] span parented on the client's
    span, emits one Info-level access-log line per request
    ([meth path -> status (ms)], stamped with the request/trace id by
    the {!Versioning_obs.Logctx} reporter), and echoes the request id
    back as an [X-Dsvc-Request-Id] response header.

    Error statuses: resolution failures (unknown version, tag, branch)
    are [404]; conflicts with repository state (duplicate names, bad
    parents) are [409]; a handler that raises yields [500]. *)

type cluster = {
  local_store : Object_store.t;
      (** this node's shard — what [/blob] serves *)
  replicated : Replicated.t;  (** the quorum view the repo runs on *)
  peer_clients : (string * Client.t) list;
      (** typed peer handles for metadata pushes *)
}
(** Cluster wiring for [dsvc serve --peers]; absent means the
    original single-node behaviour, bit for bit. *)

type access =
  | Read  (** runs under the repo lock *)
  | Write  (** Read, and a 2xx is followed by a metadata push to peers *)
  | Obs  (** observability only: skips the repo lock and telemetry refresh *)

val routes : (string * string * access) list
(** Every route as [(meth, template, access)], in table order. *)

val classify : Http.request -> (string * access) option
(** The template and access class a request routes to, if any. The
    template is also its [route] metric label ("other" when [None]). *)

val handle : ?cluster:cluster -> Repo.t -> Http.request -> Http.response

val handle_safe : ?cluster:cluster -> Repo.t -> Http.request -> Http.response
(** {!handle}, but a raising handler becomes a [500] response instead
    of an exception — what {!serve} actually runs per request. In
    cluster mode, a 2xx from a [Write] route is followed by a
    metadata push to every usable peer (inside the request's trace). *)

val serve :
  ?cluster:cluster ->
  Repo.t ->
  port:int ->
  ?host:string ->
  ?max_requests:int ->
  ?request_timeout:float ->
  ?idle_timeout:float ->
  ?max_connections:int ->
  ?backend:string ->
  ?on_listen:(int -> unit) ->
  unit ->
  (unit, string) result
(** Event-driven serving on [host] (default 127.0.0.1): one loop
    thread owns every socket ({!Versioning_util.Evloop} — epoll where
    available), connections persist across requests (HTTP/1.1
    keep-alive, pipelining up to a bounded depth), and blob responses
    stream from disk in fixed-size chunks through vectored writes.
    Parsed requests execute on one executor thread so a slow handler
    never blocks the loop; all but [Obs] routes also take an internal
    repo lock.

    [max_requests] stops the server after that many responses have
    been enqueued (tests), draining open connections briefly. The
    bound port is printed to stdout once listening, and [on_listen]
    (if any) receives it — useful with [port:0] for an ephemeral port.

    Overload and stalls: at most [max_connections] ([DSVC_MAX_CONNS]
    or 1024) connections are served concurrently — beyond that new
    connections get an immediate [503]; a connection idle mid-request
    for [request_timeout] seconds (default 30) gets a [408] and is
    closed; one idle {e between} requests for [idle_timeout]
    ([DSVC_IDLE_TIMEOUT] or 5) seconds is closed silently.

    [backend] pins the reactor poller ("epoll", "poll", "select");
    unset, [DSVC_EVLOOP] / auto-detection decide as documented in
    {!Versioning_util.Evloop.create}. The backend-matrix tests use it
    to assert the three backends agree on observable behavior.

    SIGINT/SIGTERM request a graceful shutdown (in-flight work
    finishes, the listening socket closes, previous signal handlers
    are restored, and [serve] returns [Ok ()]). A signal-initiated
    shutdown also dumps the flight recorder to
    {!Versioning_obs.Flight.default_path} when it holds any events.

    Sampling (DESIGN.md §16): unless [DSVC_OBS] is explicitly off, a
    reactor timer ticks a {!Versioning_obs.Sampler} every
    [DSVC_TS_STEP] seconds (default 5) into the repo's time-series
    ring and evaluates the alert rules; peer probing and periodic ring
    persistence run on the executor, never on the loop thread. With
    [DSVC_OBS=0] the timer is never armed and [.dsvc/timeseries] is
    never written. *)

val parse_strategy : string -> (Repo.strategy, string) result
(** The [strategy] query values, shared with the CLI. *)

val metrics_json_with_meta : unit -> string
(** The {!Versioning_obs.Metrics.to_json} document with a
    [{"meta":{"git_rev":…,"ocaml":…,"uptime_s":…}}] block spliced in
    front of the ["metrics"] array — what [GET /metrics?format=json]
    serves, shared with [dsvc metrics --json] so local and remote
    snapshots carry the same provenance stamps. *)
