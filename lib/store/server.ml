let src = Logs.Src.create "dsvc.server" ~doc:"dsvc HTTP server"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Context = Versioning_obs.Context
module Flight = Versioning_obs.Flight
module Bounded_ring = Versioning_obs.Bounded_ring
module Timeseries = Versioning_obs.Timeseries
module Alerts = Versioning_obs.Alerts
module Sampler = Versioning_obs.Sampler
module Fsutil = Versioning_util.Fsutil
module Build_info = Versioning_util.Build_info

let parse_strategy s =
  match String.split_on_char '=' s with
  | [ "min-storage" ] -> Ok Repo.Min_storage
  | [ "min-recreation" ] -> Ok Repo.Min_recreation
  | [ "balanced"; f ] | [ "budgeted-sum"; f ] -> (
      match float_of_string_opt f with
      | Some f when f >= 1.0 -> Ok (Repo.Budgeted_sum f)
      | _ -> Error "balanced=FACTOR needs FACTOR >= 1")
  | [ "bounded-max"; f ] -> (
      match float_of_string_opt f with
      | Some f when f >= 1.0 -> Ok (Repo.Bounded_max f)
      | _ -> Error "bounded-max=FACTOR needs FACTOR >= 1")
  | [ "git" ] -> Ok (Repo.Git_window (10, 50))
  | [ "svn" ] -> Ok Repo.Svn_skip
  | _ ->
      Error
        "expected min-storage | min-recreation | balanced=F | bounded-max=F \
         | git | svn"

let strategy_to_string = function
  | Repo.Min_storage -> "min-storage"
  | Repo.Min_recreation -> "min-recreation"
  | Repo.Budgeted_sum f -> Printf.sprintf "balanced=%g" f
  | Repo.Bounded_max f -> Printf.sprintf "bounded-max=%g" f
  | Repo.Git_window _ -> "git"
  | Repo.Svn_skip -> "svn"

let stats_body (s : Repo.stats) =
  Printf.sprintf
    "versions %d\nstorage_bytes %d\nmaterialized %d\ndelta_stored %d\n\
     max_chain %d\nsum_recreation %.0f\nmax_recreation %.0f\n"
    s.Repo.n_versions s.Repo.storage_bytes s.Repo.n_full s.Repo.n_delta
    s.Repo.max_chain s.Repo.sum_recreation_bytes s.Repo.max_recreation_bytes

(* Map a domain error to the right status: resolution failures are the
   client naming something that does not exist (404); everything else
   (duplicate branch, bad parent, storage failure surfaced as Error)
   is a conflict with repository state (409). *)
let status_of_error e =
  let contains needle =
    let nl = String.length needle and el = String.length e in
    let rec go i = i + nl <= el && (String.sub e i nl = needle || go (i + 1)) in
    go 0
  in
  if
    contains "cannot resolve" || contains "not found"
    || contains "is not stored" || contains "no branch named"
    || contains "unknown version" || contains "unknown parent version"
  then 404
  else 409

(* ---- recent-request table for GET /trace/:request_id ----

   A small bounded ring of per-request summaries (request id, route,
   status, latency, and the span aggregate of that request's trace),
   written by [respond] after every request so a debug client can
   ask "what did request X spend its time on" shortly after the
   fact. *)

type recent_request = {
  r_request : string;
  r_trace : string;
  r_route : string;
  r_status : int;
  r_dur : float;
  r_spans : Trace.agg list;
}

let recent_capacity = 64

let recent_mutex = Mutex.create ()

(* every access takes [recent_mutex]; read only by the /trace debug
   endpoint *)
let recent_ring : recent_request Bounded_ring.t =
  Bounded_ring.create recent_capacity

let with_recent_lock f =
  Mutex.lock recent_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock recent_mutex) f

let remember_request r =
  with_recent_lock (fun () -> Bounded_ring.push recent_ring r)

(* the newest request with that id wins *)
let find_recent_request rid =
  with_recent_lock (fun () ->
      List.find_opt
        (fun r -> r.r_request = rid)
        (List.rev (Bounded_ring.to_list recent_ring)))

let recent_request_body r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"request_id":"%s","trace_id":"%s","route":"%s","status":%d,"duration_s":%.6f,"spans":[|}
       (Metrics.json_escape r.r_request)
       (Metrics.json_escape r.r_trace)
       (Metrics.json_escape r.r_route)
       r.r_status r.r_dur);
  List.iteri
    (fun i (a : Trace.agg) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|{"name":"%s","count":%d,"total_s":%.6f}|}
           (Metrics.json_escape a.Trace.agg_name)
           a.Trace.count a.Trace.total_s))
    r.r_spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Cluster wiring, when serving with [--peers]: the node's own shard
   ([local_store] — what the [/blob] peer routes serve, so replication
   never recurses through the quorum), the replicated view the repo
   reads and writes through, and typed clients to each peer for
   metadata pushes. *)
type cluster = {
  local_store : Object_store.t;
  replicated : Replicated.t;
  peer_clients : (string * Client.t) list;
}


let push_meta_to_peers cluster repo =
  match Repo.export_meta repo with
  | Error e -> Log.warn (fun m -> m "meta push skipped: %s" e)
  | Ok meta ->
      List.iter
        (fun (name, client) ->
          if Replicated.usable cluster.replicated name then
            match Client.push_meta client meta with
            | Ok _ -> ()
            | Error e ->
                (* The peer will converge at its next anti-entropy;
                   blob traffic keeps the failure detector informed. *)
                Log.warn (fun m -> m "meta push to %s failed: %s" name e))
        cluster.peer_clients

let health_body ?cluster repo =
  let b = Buffer.create 256 in
  let store =
    match cluster with
    | Some c -> c.local_store
    | None -> Repo.object_store repo
  in
  (match (Object_store.backend store).Backend.ping () with
  | Ok () -> Buffer.add_string b "status ok\nstore ok\n"
  | Error e -> Buffer.add_string b (Printf.sprintf "status degraded\nstore %s\n" e));
  Buffer.add_string b
    (Printf.sprintf "journal %s\n"
       (if Repo.journal_pending repo then "pending" else "clean"));
  Buffer.add_string b (Printf.sprintf "generation %d\n" (Repo.generation repo));
  (* Build/process provenance — the same stamps dsvc metrics --json and
     the bench record carry, so all three are diffable. *)
  Buffer.add_string b (Printf.sprintf "build %s\n" (Build_info.git_rev ()));
  Buffer.add_string b (Printf.sprintf "ocaml %s\n" Build_info.ocaml_version);
  Buffer.add_string b (Printf.sprintf "uptime_s %.0f\n" (Build_info.uptime ()));
  (match cluster with
  | None -> ()
  | Some c ->
      let r = c.replicated in
      Buffer.add_string b (Printf.sprintf "self %s\n" (Replicated.self r));
      Buffer.add_string b
        (Printf.sprintf "ring_epoch %s\n" (Replicated.ring_epoch r));
      Buffer.add_string b
        (Printf.sprintf "replicas %d\n" (Replicated.replicas r));
      Buffer.add_string b
        (Printf.sprintf "hints %d\n" (Replicated.pending_hints r));
      List.iter
        (fun (name, state, err) ->
          Buffer.add_string b
            (Printf.sprintf "peer %s %s%s\n" name
               (match state with
               | `Up -> "up"
               | `Down -> "down"
               | `Probe -> "probe")
               (if err = "" then "" else " " ^ err)))
        (Replicated.peers r));
  Buffer.contents b

(* Re-label one node's Prometheus exposition for the cluster-wide
   scrape: drop the # HELP/# TYPE comment lines (the same family
   repeats across peers, and its comments may appear at most once in
   one exposition) and tag every sample with peer="<name>" as its
   first label. *)
let relabel_prometheus ~peer body =
  let b = Buffer.create (String.length body + 256) in
  (* Prometheus quoting, not OCaml %S: a peer name with a backslash,
     quote, or newline must escape per the exposition spec (%S would
     emit decimal escapes like \255 that scrapers reject). *)
  let tag = Printf.sprintf "peer=\"%s\"" (Metrics.escape_label peer) in
  List.iter
    (fun line ->
      if line = "" || line.[0] = '#' then ()
      else begin
        (match (String.index_opt line '{', String.index_opt line ' ') with
        | Some i, Some j when i < j ->
            (* name{a="b"} v  ->  name{peer="p",a="b"} v *)
            Buffer.add_string b (String.sub line 0 (i + 1));
            Buffer.add_string b tag;
            if i + 1 < String.length line && line.[i + 1] <> '}' then
              Buffer.add_char b ',';
            Buffer.add_string b
              (String.sub line (i + 1) (String.length line - i - 1))
        | _, Some j ->
            (* name v  ->  name{peer="p"} v *)
            Buffer.add_string b (String.sub line 0 j);
            Buffer.add_char b '{';
            Buffer.add_string b tag;
            Buffer.add_char b '}';
            Buffer.add_string b (String.sub line j (String.length line - j))
        | _, None -> Buffer.add_string b line);
        Buffer.add_char b '\n'
      end)
    (String.split_on_char '\n' body);
  Buffer.contents b

(* ---- alert engine (DESIGN.md §16) ----

   One process-global rule engine over the repo's time-series,
   evaluated by the sampler tick. Built lazily so a server that never
   arms the sampler (Obs forced off) pays nothing; GET /alerts still
   answers with every rule Inactive. DSVC_ALERT_SUPPRESS is a
   comma-separated list of rule names to annotate as suppressed —
   they keep evaluating and reporting, but a dashboard can drop
   them. *)
let alerts_engine =
  lazy
    (let t = Alerts.create ~rules:(Alerts.default_rules ()) in
     (match Sys.getenv_opt "DSVC_ALERT_SUPPRESS" with
     | None -> ()
     | Some spec ->
         List.iter
           (fun name ->
             let name = String.trim name in
             if name <> "" then
               Alerts.suppress t ~name ~reason:"DSVC_ALERT_SUPPRESS")
           (String.split_on_char ',' spec));
     t)

(* GET /timeseries body: without [metric], the sorted series names;
   with one, `time count avg min max last` lines for the finest tier
   covering [since] seconds back (default: the fine tier's whole
   retention). *)
let timeseries_body ts ~metric ~since ~now =
  match metric with
  | None -> (
      match Timeseries.metrics ts with
      | [] -> ""
      | names -> String.concat "\n" names ^ "\n")
  | Some metric ->
      let since = Option.map (fun s -> now -. s) since in
      let samples = Timeseries.query ts ~metric ?since ~now () in
      let b = Buffer.create 1024 in
      List.iter
        (fun (s : Timeseries.sample) ->
          Buffer.add_string b
            (Printf.sprintf "%.3f %d %.6g %.6g %.6g %.6g\n" s.Timeseries.s_time
               s.Timeseries.s_count s.Timeseries.s_avg s.Timeseries.s_min
               s.Timeseries.s_max s.Timeseries.s_last))
        samples;
      Buffer.contents b

(* The JSON metrics document with a build/process meta block spliced
   in front of [Metrics.to_json]'s {"metrics":[...]} — shared with
   `dsvc metrics --json`, and shaped like the BENCH_2.json meta stamps
   so the two are diffable. *)
let metrics_json_with_meta () =
  let base = Metrics.to_json () in
  let tail = String.sub base 1 (String.length base - 1) in
  Printf.sprintf {|{"meta":{"git_rev":"%s","ocaml":"%s","uptime_s":%.3f},%s|}
    (Metrics.json_escape (Build_info.git_rev ()))
    (Metrics.json_escape Build_info.ocaml_version)
    (Build_info.uptime ()) tail

(* ---- the route table ----

   Every route is one entry, and every routing decision reads the entry
   a request matched: the metric and access-log label is its template,
   [Obs] routes skip the repo lock (they read only their own
   internally synchronized state), and a 2xx from a [Write] route is
   pushed to the peers. *)

type access = Read | Write | Obs

type env = { repo : Repo.t; cluster : cluster option; req : Http.request }

type route = {
  meth : string;
  template : string;
  access : access;
  run : env -> (string -> string) -> Http.response;
      (* applied to a lookup of the template's [:captures] by name *)
}

let route meth template access run = { meth; template; access; run }

let param e key = List.assoc_opt key e.req.Http.query

let local_store e =
  match e.cluster with
  | Some c -> c.local_store
  | None -> Repo.object_store e.repo

let resolve e name =
  match Repo.resolve e.repo name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "cannot resolve %S" name)

let created body = { (Http.ok body) with Http.status = 201 }

let of_result = function
  | Ok body -> Http.ok body
  | Error e -> Http.error (status_of_error e) (e ^ "\n")

let unit_result r = of_result (Result.map (fun () -> "ok\n") r)

let at e = Option.bind (param e "at") int_of_string_opt

let with_digest arg k =
  let d = arg "digest" in
  if Content_hash.is_valid d then k d
  else Http.error 400 (Printf.sprintf "invalid digest %S\n" d)

let prometheus body =
  Http.ok ~content_type:"text/plain; version=0.0.4; charset=utf-8" body

(* Cluster-wide scrape: this node's registry plus a live fan-out to
   every peer's GET /metrics, each sample tagged with its origin peer.
   A peer that cannot be reached contributes a dsvc_cluster_scrape_up 0
   gauge and an annotation line rather than failing the whole scrape —
   partial results beat none. *)
let cluster_scrape cluster =
  let self_name =
    match cluster with
    | Some c -> Replicated.self c.replicated
    | None -> "self"
  in
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "# Cluster-wide scrape: every sample carries a peer label naming its \
     origin node.\n";
  let add_up peer ok =
    Buffer.add_string b
      (Printf.sprintf "dsvc_cluster_scrape_up{peer=\"%s\"} %d\n"
         (Metrics.escape_label peer)
         (if ok then 1 else 0))
  in
  Buffer.add_string b
    (relabel_prometheus ~peer:self_name (Metrics.to_prometheus ()));
  add_up self_name true;
  (match cluster with
  | None -> ()
  | Some c ->
      (* annotation comments must stay one line each — a newline
         anywhere in the peer name or the error would inject a
         non-comment line and corrupt the scrape *)
      let one_line s = String.map (fun ch -> if ch = '\n' then ' ' else ch) s in
      List.iter
        (fun (name, client) ->
          match Client.request client ~meth:"GET" ~path:"/metrics" () with
          | Ok (200, body) ->
              Buffer.add_string b (relabel_prometheus ~peer:name body);
              add_up name true
          | Ok (status, _) ->
              Buffer.add_string b
                (Printf.sprintf "# peer %s unreachable: HTTP %d\n"
                   (one_line name) status);
              add_up name false
          | Error e ->
              Buffer.add_string b
                (Printf.sprintf "# peer %s unreachable: %s\n" (one_line name)
                   (one_line e));
              add_up name false)
        c.peer_clients);
  Buffer.contents b

let table =
  [
    route "GET" "/versions" Read (fun e _ ->
        let lines =
          Repo.log e.repo
          |> List.map (fun (c : Repo.commit_info) ->
                 Printf.sprintf "%d %s %s" c.id
                   (match c.parents with
                   | [] -> "-"
                   | ps -> String.concat "," (List.map string_of_int ps))
                   c.message)
        in
        Http.ok (String.concat "\n" lines ^ "\n"));
    route "GET" "/checkout/:name" Read (fun e arg ->
        match Result.bind (resolve e (arg "name")) (Repo.checkout e.repo) with
        | Ok content -> Http.ok ~content_type:"application/octet-stream" content
        | Error msg -> Http.error 404 (msg ^ "\n"));
    route "POST" "/commit" Write (fun e _ ->
        let message = Option.value (param e "message") ~default:"" in
        let parents =
          match param e "parents" with
          | None | Some "" -> Ok None
          | Some ps -> (
              let ids =
                String.split_on_char ',' ps |> List.map int_of_string_opt
              in
              if List.for_all Option.is_some ids then
                Ok (Some (List.map Option.get ids))
              else Error "bad parents list")
        in
        match parents with
        | Error msg -> Http.error 400 (msg ^ "\n")
        | Ok parents -> (
            match Repo.commit e.repo ~message ?parents e.req.Http.body with
            | Ok id -> created (string_of_int id)
            | Error _ as err -> of_result err));
    route "GET" "/stats" Read (fun e _ ->
        (* Stats already walks every stored object; refreshing the drift
           score here (same walk) is where the telemetry drift gauge
           gets its value — the per-request gauge refresh in
           [respond] is memory-only. *)
        if Obs.enabled () then ignore (Repo.drift_score e.repo);
        Http.ok (stats_body (Repo.stats e.repo)));
    route "GET" "/branches" Read (fun e _ ->
        Http.ok
          (String.concat "\n"
             (List.map
                (fun (n, v) ->
                  Printf.sprintf "%s%s %d"
                    (if n = Repo.current_branch e.repo then "*" else "")
                    n v)
                (Repo.branches e.repo))
          ^ "\n"));
    route "POST" "/branch/:name" Write (fun e arg ->
        unit_result (Repo.create_branch e.repo (arg "name") ?at:(at e) ()));
    route "POST" "/switch/:name" Write (fun e arg ->
        unit_result (Repo.switch e.repo (arg "name")));
    route "GET" "/tags" Read (fun e _ ->
        Http.ok
          (String.concat "\n"
             (List.map
                (fun (n, v) -> Printf.sprintf "%s %d" n v)
                (Repo.tags e.repo))
          ^ "\n"));
    route "POST" "/tag/:name" Write (fun e arg ->
        unit_result (Repo.tag e.repo (arg "name") ?at:(at e) ()));
    route "GET" "/diff/:a/:b" Read (fun e arg ->
        match
          Result.bind (resolve e (arg "a")) (fun va ->
              Result.bind (resolve e (arg "b")) (Repo.diff e.repo va))
        with
        | Ok d -> Http.ok d
        | Error msg -> Http.error 404 (msg ^ "\n"));
    route "POST" "/optimize" Write (fun e _ ->
        match Option.map parse_strategy (param e "strategy") with
        | None -> Http.error 400 "missing strategy parameter\n"
        | Some (Error msg) -> Http.error 400 (msg ^ "\n")
        | Some (Ok strategy) ->
            of_result (Result.map stats_body (Repo.optimize e.repo strategy)));
    route "GET" "/verify" Read (fun e _ ->
        match Repo.verify e.repo with
        | Ok () -> Http.ok "consistent\n"
        | Error problems ->
            Http.error 500 (String.concat "\n" problems ^ "\n"));
    route "GET" "/metrics" Obs (fun e _ ->
        match param e "format" with
        | Some "json" ->
            Http.ok ~content_type:"application/json" (metrics_json_with_meta ())
        | _ -> prometheus (Metrics.to_prometheus ()));
    (* Obs although it fans out over the network: it reads only the
       (mutex-guarded) metrics registry, never the repo, so a dead peer
       stalling it for a client timeout holds up no repo request. *)
    route "GET" "/metrics/cluster" Obs (fun e _ ->
        prometheus (cluster_scrape e.cluster));
    route "GET" "/timeseries" Obs (fun e _ ->
        (* The repo's sampled metric history: the ring has its own mutex
           and the handle's field is only replaced at open. An un-sampled
           server answers with an empty body. *)
        let since = Option.bind (param e "since") float_of_string_opt in
        Http.ok
          (timeseries_body (Repo.timeseries e.repo) ~metric:(param e "metric")
             ~since ~now:(Unix.gettimeofday ())));
    route "GET" "/alerts" Obs (fun _ _ ->
        Http.ok (Alerts.render (Lazy.force alerts_engine)));
    route "GET" "/trace/:request_id" Obs (fun _ arg ->
        (* Only requests still in the bounded ring are answerable. *)
        let rid = arg "request_id" in
        match find_recent_request rid with
        | Some r ->
            Http.ok ~content_type:"application/json" (recent_request_body r)
        | None ->
            Http.error 404
              (Printf.sprintf "no recent request %S (ring keeps the last %d)\n"
                 rid recent_capacity));
    route "GET" "/flight" Obs (fun _ _ ->
        Http.ok ~content_type:"application/json" (Flight.to_json ()));
    route "GET" "/health" Read (fun e _ ->
        Http.ok (health_body ?cluster:e.cluster e.repo));
    (* ---- peer blob routes: always the node's LOCAL shard ---- *)
    route "GET" "/blob/:digest" Read (fun e arg ->
        with_digest arg @@ fun digest ->
        match Object_store.get (local_store e) digest with
        | Ok content -> Http.ok ~content_type:"application/octet-stream" content
        | Error msg -> Http.error 404 (msg ^ "\n"));
    route "GET" "/blob/:digest/stat" Read (fun e arg ->
        with_digest arg @@ fun digest ->
        match Object_store.get (local_store e) digest with
        | Ok content ->
            Http.ok (Printf.sprintf "present %d\n" (String.length content))
        | Error msg -> Http.error 404 (msg ^ "\n"));
    route "POST" "/blob/:digest" Read (fun e arg ->
        with_digest arg @@ fun digest ->
        if Content_hash.hex e.req.Http.body <> digest then
          Http.error 409 "content does not match digest\n"
        else
          match Object_store.put (local_store e) e.req.Http.body with
          | Ok _ -> created "stored\n"
          | Error msg -> Http.error 409 (msg ^ "\n"));
    route "POST" "/blob/:digest/quarantine" Read (fun e arg ->
        with_digest arg @@ fun digest ->
        match Object_store.quarantine (local_store e) digest with
        | Ok dst -> Http.ok (dst ^ "\n")
        | Error msg -> Http.error 404 (msg ^ "\n"));
    route "DELETE" "/blob/:digest" Read (fun e arg ->
        with_digest arg @@ fun digest ->
        Object_store.delete (local_store e) digest;
        Http.ok "deleted\n");
    route "GET" "/blobs" Read (fun e _ ->
        let lines =
          (Object_store.backend (local_store e)).Backend.list ()
          |> List.map (fun (d, size) -> Printf.sprintf "%s %d" d size)
        in
        Http.ok (String.concat "\n" lines ^ "\n"));
    (* ---- metadata replication: never Write, so an adopted push does
       not trigger another push ---- *)
    route "GET" "/meta" Read (fun e _ ->
        match Repo.export_meta e.repo with
        | Ok meta -> Http.ok meta
        | Error msg -> Http.error 500 (msg ^ "\n"));
    route "POST" "/meta/sync" Read (fun e _ ->
        match Repo.adopt_meta e.repo e.req.Http.body with
        | Ok true -> Http.ok "adopted\n"
        | Ok false -> Http.ok "stale\n"
        | Error msg -> Http.error 409 (msg ^ "\n"));
    route "POST" "/anti-entropy" Read (fun e _ ->
        match e.cluster with
        | None -> Http.error 409 "not serving in cluster mode\n"
        | Some c ->
            (* Bring rejoined peers current: probe first (a restarted
               node must not wait out its probation), then metadata (so
               their reference set is ours), then blob replication. *)
            Replicated.probe c.replicated;
            push_meta_to_peers c e.repo;
            let report =
              Replicated.anti_entropy c.replicated
                ~digests:(Repo.referenced_digests e.repo)
            in
            let b = Buffer.create 128 in
            Buffer.add_string b
              (Printf.sprintf "checked %d\nrepaired %d\nfailed %d\n"
                 report.Replicated.checked report.Replicated.repaired
                 (List.length report.Replicated.failed));
            List.iter
              (fun f -> Buffer.add_string b (Printf.sprintf "failure %s\n" f))
              report.Replicated.failed;
            if report.Replicated.failed = [] then Http.ok (Buffer.contents b)
            else Http.error 500 (Buffer.contents b));
  ]

let routes = List.map (fun r -> (r.meth, r.template, r.access)) table

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let compiled = List.map (fun r -> (r, segments r.template)) table

(* Bind a template's segments to a request's decoded ones: the
   captures when every literal agrees and the lengths match. *)
let rec bind tpl segs acc =
  match (tpl, segs) with
  | [], [] -> Some acc
  | t :: tpl, s :: segs when t.[0] = ':' ->
      bind tpl segs ((String.sub t 1 (String.length t - 1), s) :: acc)
  | t :: tpl, s :: segs when t = s -> bind tpl segs acc
  | _ -> None

type matched =
  | Found of route * (string * string) list
  | Wrong_method of string list  (* the methods the path does take *)
  | No_route

(* The one match per request. The path arrives still percent-encoded
   and is split on '/' before each segment is decoded, so a ref name
   carrying an encoded '/' or '?' stays one capture. *)
let lookup (req : Http.request) =
  let segs = List.map Http.percent_decode (segments req.Http.path) in
  let hits =
    List.filter_map
      (fun (r, tpl) -> Option.map (fun caps -> (r, caps)) (bind tpl segs []))
      compiled
  in
  match List.find_opt (fun (r, _) -> r.meth = req.Http.meth) hits with
  | Some (r, caps) -> Found (r, caps)
  | None when hits = [] -> No_route
  | None -> Wrong_method (List.map (fun (r, _) -> r.meth) hits)

let classify req =
  match lookup req with
  | Found (r, _) -> Some (r.template, r.access)
  | Wrong_method _ | No_route -> None

let answer ?cluster repo req = function
  | Found (r, caps) ->
      r.run { repo; cluster; req } (fun name -> List.assoc name caps)
  | Wrong_method allowed ->
      {
        (Http.error 405 "method not allowed\n") with
        Http.headers = [ ("Allow", String.concat ", " allowed) ];
      }
  | No_route -> Http.error 404 "no such route\n"

(* Recover the client's trace context from the request headers: the
   trace id and parent span from [traceparent], the request id from
   [X-Dsvc-Request-Id] (sanitized — it ends up in log lines). A
   request with neither gets a fresh server-side context, so every
   access-log line has a request id either way. *)
let context_of_request (req : Http.request) =
  let base =
    match
      Option.bind
        (List.assoc_opt "traceparent" req.Http.headers)
        Context.of_traceparent
    with
    | Some ctx -> ctx
    | None -> Context.make ()
  in
  match
    Option.bind
      (List.assoc_opt "x-dsvc-request-id" req.Http.headers)
      Context.sanitize_id
  with
  | Some rid -> { base with Context.request_id = rid }
  | None -> base

(* A raising handler must cost the client a 500, not the server its
   life (and not the client a silently dropped connection).

   This wrapper is also where a request joins its client's trace: the
   extracted context becomes ambient (stamping spans and log lines),
   the [server.request] span attaches under the client's span, the
   access log records route/status/latency/request id, and the
   request's span summary lands in the recent-request ring for
   GET /trace/:request_id. The wall-clock read here is a server-tier
   operational measurement, not an Obs-gated one — it feeds the access
   log, never a planning decision (DESIGN.md §11). *)
let respond ?cluster repo req matched =
  let ctx = context_of_request req in
  Context.with_context ctx @@ fun () ->
  let run () =
    try answer ?cluster repo req matched
    with e -> Http.error 500 ("internal error: " ^ Printexc.to_string e ^ "\n")
  in
  let route, access =
    match matched with
    | Found (r, _) -> (r.template, Some r.access)
    | Wrong_method _ | No_route -> ("other", None)
  in
  let t0 = Unix.gettimeofday () in
  let resp =
    Trace.with_span ?parent:ctx.Context.parent_span "server.request" run
  in
  let dur = Unix.gettimeofday () -. t0 in
  (* Refresh the workload-telemetry gauges while this thread still
     holds the repo lock ([Obs] routes skip it — they must not touch
     repo state). The refresh is memory-only: the drift value is
     whatever the last explicit [Repo.drift_score] computed (GET
     /stats refreshes it). *)
  if Obs.enabled () && access <> Some Obs then Repo.export_telemetry repo;
  if Obs.enabled () then begin
    (* Per-route count/latency/status; the route template keeps label
       cardinality bounded. *)
    Metrics.counter "dsvc_server_requests_total"
      ~labels:
        [ ("route", route); ("status", string_of_int resp.Http.status) ]
      ~help:"HTTP requests handled, by route template and status";
    Metrics.observe "dsvc_server_request_seconds"
      ~labels:[ ("route", route) ] dur
      ~help:"HTTP request handling latency, by route template"
  end;
  (* Access log: the reporter (Logctx) stamps request/trace ids from
     the ambient context. *)
  Log.info (fun m ->
      m "%s %s -> %d (%.3fms)" req.Http.meth req.Http.path resp.Http.status
        (dur *. 1000.0));
  let span_summary =
    if Obs.enabled () then
      Trace.summarize_spans
        (List.filter
           (fun (s : Trace.span) -> s.Trace.trace = Some ctx.Context.trace_id)
           (Trace.spans ()))
    else []
  in
  remember_request
    {
      r_request = ctx.Context.request_id;
      r_trace = ctx.Context.trace_id;
      r_route = route;
      r_status = resp.Http.status;
      r_dur = dur;
      r_spans = span_summary;
    };
  (* Successful mutations propagate metadata to the peers while still
     inside the request's trace, so the pushes appear in its spans. *)
  (match cluster with
  | Some c
    when access = Some Write && resp.Http.status >= 200
         && resp.Http.status < 300 ->
      push_meta_to_peers c repo
  | _ -> ());
  (* Echo the request id so clients can quote it back at /trace/:id. *)
  {
    resp with
    Http.headers =
      ("X-Dsvc-Request-Id", ctx.Context.request_id) :: resp.Http.headers;
  }

let handle ?cluster repo req = respond ?cluster repo req (lookup req)

(* ---- event-driven serving (DESIGN.md §13) ----

   One loop thread owns every socket: it accepts, reads, parses
   incrementally, and writes — never blocking on any of them. Parsed
   requests are handed to a one-thread executor (the ambient trace
   {!Context} is domain-local and shared between systhreads, so a
   second handler thread would mix up trace ids) whose responses are
   posted back to the loop.
   Heavy handlers still parallelize internally: [Repo.optimize] fans
   out across the [Pool] domains, so the loop stays responsive while a
   solve runs. *)

module Evloop = Versioning_util.Evloop
module Faults = Versioning_util.Faults

(* How many complete pipelined requests may queue per connection
   before the loop stops reading from it (backpressure). *)
let max_pipeline = 16

type out_slice = { o_data : string; mutable o_off : int }

type conn = {
  c_fd : Unix.file_descr;
  c_parser : Http.Parser.t;
  c_pending : Http.request Queue.t;  (* parsed, not yet dispatched *)
  c_out : out_slice Queue.t;  (* serialized bytes awaiting the socket *)
  mutable c_busy : bool;  (* a handler is running for this conn *)
  mutable c_close_after : bool;  (* close once the out queue drains *)
  mutable c_eof : bool;  (* peer closed its sending half *)
  mutable c_closed : bool;
  mutable c_last_activity : float;
  mutable c_served : int;  (* responses enqueued on this connection *)
}

(* One sampler tick's peer probe, run off the loop thread: a single
   GET /health attempt per peer (the scrape-up fraction must see real
   deadness, not a retried success), whose body also carries the
   peer's ring epoch. Refreshes the epoch-mismatch and hint-queue lag
   gauges and returns the fraction of nodes up, this one included. *)
let probe_peers c =
  let self_epoch = Replicated.ring_epoch c.replicated in
  let up =
    List.fold_left
      (fun up (name, client) ->
        match Client.ping client with
        | Error _ -> up
        | Ok fields ->
            let mismatch =
              match List.assoc_opt "ring_epoch" fields with
              | Some e when e = self_epoch -> 0.0
              | _ -> 1.0
            in
            Metrics.gauge "dsvc_cluster_ring_epoch_mismatch"
              ~labels:[ ("peer", name) ]
              ~help:"1 when the peer reports a different ring epoch"
              mismatch;
            up + 1)
      1 c.peer_clients
  in
  Replicated.export_lag_metrics c.replicated;
  float_of_int up /. float_of_int (1 + List.length c.peer_clients)

let record_rejected reason =
  Metrics.counter "dsvc_server_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Connections/requests refused by the server core, by reason"

let serve ?cluster repo ~port ?(host = "127.0.0.1") ?max_requests
    ?(request_timeout = 30.0) ?idle_timeout ?max_connections ?on_listen () =
  (* Serving is an operational mode: turn the observability layer on
     so GET /metrics has data, whatever the environment says. *)
  Obs.enable ();
  (* Numeric knobs go through the shared validating parsers: a typo'd
     value complains on stderr instead of silently running with the
     default. *)
  let idle_timeout =
    match idle_timeout with
    | Some v -> v
    | None -> Obs.env_float "DSVC_IDLE_TIMEOUT" ~default:5.0
  in
  let max_connections =
    match max_connections with
    | Some v -> v
    | None -> Obs.env_int "DSVC_MAX_CONNS" ~default:1024
  in
  try
    let addr = Unix.inet_addr_of_string host in
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    Unix.bind lsock (Unix.ADDR_INET (addr, port));
    Unix.listen lsock 128;
    Unix.set_nonblock lsock;
    let actual_port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    Printf.printf "dsvc server listening on %s:%d\n%!" host actual_port;
    (match on_listen with Some f -> f actual_port | None -> ());
    let stop = ref false in
    let old_int = ref None and old_term = ref None in
    (try
       old_int :=
         Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)));
       old_term :=
         Some
           (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)))
     with Invalid_argument _ | Sys_error _ -> ());
    let restore_signals () =
      let restore name signum = function
        | None -> ()
        | Some behaviour -> (
            try Sys.set_signal signum behaviour
            with e ->
              (* Restoration is best effort (the process is exiting),
                 but a failure is still worth a trace. *)
              Log.warn (fun m ->
                  m "could not restore %s handler: %s" name
                    (Printexc.to_string e)))
      in
      restore "SIGINT" Sys.sigint !old_int;
      restore "SIGTERM" Sys.sigterm !old_term
    in
    let loop = Evloop.create () in
    let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
    let served = ref 0 in
    let stopping = ref false in
    let listener_open = ref true in
    let drain_deadline = ref infinity in
    let rbuf = Bytes.create 65536 in
    (* Executor: parsed requests run on one thread so a slow handler
       never blocks the loop. The repo lock keeps the sampler's
       persistence thread off the repo while a handler runs. *)
    let repo_mutex = Mutex.create () in
    let with_repo_lock f =
      Mutex.lock repo_mutex;
      Fun.protect ~finally:(fun () -> Mutex.unlock repo_mutex) f
    in
    let jobs : (unit -> unit) Queue.t = Queue.create () in
    let jobs_mutex = Mutex.create () in
    let jobs_cond = Condition.create () in
    let quit = ref false in
    let submit job =
      Mutex.lock jobs_mutex;
      Queue.push job jobs;
      Condition.signal jobs_cond;
      Mutex.unlock jobs_mutex
    in
    let rec worker () =
      Mutex.lock jobs_mutex;
      while Queue.is_empty jobs && not !quit do
        Condition.wait jobs_cond jobs_mutex
      done;
      let job = if Queue.is_empty jobs then None else Some (Queue.pop jobs) in
      Mutex.unlock jobs_mutex;
      match job with
      | None -> ()
      | Some job ->
          (try job ()
           with e ->
             (* lint: swallow-ok a raising job must cost one response,
                never the executor thread; respond already maps
                handler exceptions to 500s, so this is a backstop *)
             Log.err (fun m -> m "executor job raised: %s" (Printexc.to_string e)));
          worker ()
    in
    let executor = Thread.create worker () in
    (* ---- cluster health sampler (DESIGN.md §16) ----

       A reactor timer ticks the sampler every DSVC_TS_STEP seconds:
       the tick itself is Locks-only (lint R7 — snapshot the registry,
       fold into the repo's time-series ring, evaluate alerts), while
       everything that can block — peer probing and ring persistence —
       is handed to the executor. DSVC_OBS=0 keeps the timer unarmed
       entirely: no clock reads, no samples, no .dsvc/timeseries. *)
    let sampler_armed = not (Obs.forced_off ()) in
    let up_cell = Atomic.make (None : float option) in
    let sampler =
      Sampler.create
        ~alerts:(Lazy.force alerts_engine)
        ?up_fraction:
          (match cluster with
          | Some _ -> Some (fun () -> Atomic.get up_cell)
          | None -> None)
        ~ts:(Repo.timeseries repo) ()
    in
    let probe_cluster () =
      match cluster with
      | None -> ()
      | Some c -> Atomic.set up_cell (Some (probe_peers c))
    in
    let tick_count = ref 0 in
    (* The probe gets its own short-lived thread, never the request
       executor: probing a peer waits on that peer's HTTP responses,
       and two nodes probing each other from their (single-worker)
       executors would each be stuck waiting for a worker the other
       cannot free — a distributed stall that starves real requests
       until the socket timeout. At most one probe thread is alive at
       a time; a tick that finds the previous probe still running
       records and evaluates as usual but skips spawning another. *)
    let probe_inflight = Atomic.make false in
    let sampler_tick () =
      Sampler.tick sampler ~now:(Unix.gettimeofday ());
      incr tick_count;
      let flush = !tick_count mod 12 = 0 in
      if Atomic.compare_and_set probe_inflight false true then
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Atomic.set probe_inflight false)
                 (fun () ->
                   try
                     probe_cluster ();
                     if flush then
                       match
                         with_repo_lock (fun () -> Repo.flush_ledgers repo)
                       with
                       | Ok () -> ()
                       | Error e ->
                           Log.warn (fun m -> m "ledgers not persisted: %s" e)
                   with e ->
                     (* lint: swallow-ok a failed probe costs one
                        sample, never the server *)
                     Log.warn (fun m ->
                         m "cluster probe failed: %s" (Printexc.to_string e))))
             ())
    in
    let conn_drained conn =
      Queue.is_empty conn.c_out
      && (not conn.c_busy)
      && Queue.is_empty conn.c_pending
      && not (Http.Parser.in_request conn.c_parser)
    in
    let gather conn =
      let slices = ref [] and n = ref 0 in
      (try
         Queue.iter
           (fun sl ->
             if !n >= 8 then raise Exit;
             slices :=
               (sl.o_data, sl.o_off, String.length sl.o_data - sl.o_off)
               :: !slices;
             incr n)
           conn.c_out
       with Exit -> ());
      Array.of_list (List.rev !slices)
    in
    let rec advance conn n =
      if n > 0 then begin
        let sl = Queue.peek conn.c_out in
        let rem = String.length sl.o_data - sl.o_off in
        if n >= rem then begin
          ignore (Queue.pop conn.c_out);
          advance conn (n - rem)
        end
        else sl.o_off <- sl.o_off + n
      end
    in
    let rec close_conn conn =
      if not conn.c_closed then begin
        conn.c_closed <- true;
        Evloop.remove loop conn.c_fd;
        Hashtbl.remove conns (Evloop.fd_int conn.c_fd);
        (try Unix.close conn.c_fd with Unix.Unix_error _ -> ())
      end
    and update_interest conn =
      if not conn.c_closed then begin
        let want_write = not (Queue.is_empty conn.c_out) in
        (* No reads while output is queued: a peer that pipelines
           without reading then holds at most [max_pipeline] requests
           and their responses in the server, however large. *)
        let want_read =
          (not conn.c_close_after)
          && (not conn.c_eof) && (not want_write)
          && Queue.length conn.c_pending < max_pipeline
        in
        Evloop.modify loop conn.c_fd ~read:want_read ~write:want_write
      end
    and begin_shutdown () =
      if not !stopping then begin
        stopping := true;
        drain_deadline := Unix.gettimeofday () +. 5.0;
        if !listener_open then begin
          listener_open := false;
          Evloop.remove loop lsock;
          (try Unix.close lsock with Unix.Unix_error _ -> ())
        end;
        let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
        List.iter
          (fun c ->
            c.c_close_after <- true;
            if conn_drained c then close_conn c else update_interest c)
          all
      end
    and enqueue_response conn ~keep resp =
      (* The fault site that makes the peer vanish instead of
         responding. *)
      match Faults.guard "http.write_response" with
      | exception Faults.Injected _ -> close_conn conn
      | () ->
          if conn.c_served > 0 then
            Metrics.counter "dsvc_server_keepalive_reuse_total"
              ~help:"Responses sent on an already-used (kept-alive) connection";
          conn.c_served <- conn.c_served + 1;
          incr served;
          let header = Http.serialize_header ~keep_alive:keep resp in
          Queue.push { o_data = header; o_off = 0 } conn.c_out;
          if resp.Http.body <> "" then
            Queue.push { o_data = resp.Http.body; o_off = 0 } conn.c_out;
          if not keep then conn.c_close_after <- true;
          (match max_requests with
          | Some m when !served >= m -> begin_shutdown ()
          | _ -> ())
    and dispatch conn =
      if
        (not conn.c_busy)
        && (not conn.c_closed)
        && (not conn.c_close_after)
        && not (Queue.is_empty conn.c_pending)
      then begin
        let req = Queue.pop conn.c_pending in
        let keep = Http.keep_alive ~version:req.version req.headers in
        conn.c_busy <- true;
        conn.c_last_activity <- Unix.gettimeofday ();
        let matched = lookup req in
        submit (fun () ->
            let run () = respond ?cluster repo req matched in
            let resp =
              match matched with
              | Found ({ access = Obs; _ }, _) -> run ()
              | _ -> with_repo_lock run
            in
            Evloop.post loop (fun () -> on_response conn keep resp))
      end
    and on_response conn keep resp =
      conn.c_busy <- false;
      if not conn.c_closed then begin
        enqueue_response conn ~keep resp;
        if not conn.c_closed then begin
          (* Requests that arrived past [max_pipeline] wait in the
             parser's buffer; no new bytes need come to parse them. *)
          drain_parser conn;
          dispatch conn;
          try_flush conn
        end
      end
    and try_flush conn =
      if not conn.c_closed then begin
        let progress = ref true in
        (try
           while !progress && not (Queue.is_empty conn.c_out) do
             let n = Evloop.writev conn.c_fd (gather conn) in
             if n <= 0 then progress := false else advance conn n
           done
         with Unix.Unix_error _ -> close_conn conn);
        if not conn.c_closed then
          if
            Queue.is_empty conn.c_out
            && (conn.c_close_after || (conn.c_eof && conn_drained conn))
          then close_conn conn
          else update_interest conn
      end
    and drain_parser conn =
      if
        (not conn.c_closed)
        && (not conn.c_close_after)
        && Queue.length conn.c_pending < max_pipeline
      then
        match Http.Parser.next conn.c_parser with
        | `Request req ->
            Queue.push req conn.c_pending;
            drain_parser conn
        | `Partial -> ()
        | `Reject r ->
            record_rejected "parse";
            enqueue_response conn ~keep:false
              (Http.error r.Http.Parser.reject_status
                 (r.Http.Parser.reject_reason ^ "\n"))
    and on_readable conn =
      (* lint: reactor-ok c_fd is O_NONBLOCK and the loop signalled
         readability; this read returns immediately (EAGAIN handled) *)
      match Unix.read conn.c_fd rbuf 0 (Bytes.length rbuf) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> close_conn conn
      | 0 ->
          conn.c_eof <- true;
          if conn_drained conn then close_conn conn else update_interest conn
      | n ->
          conn.c_last_activity <- Unix.gettimeofday ();
          Http.Parser.feed conn.c_parser rbuf 0 n;
          drain_parser conn;
          if not conn.c_closed then begin
            dispatch conn;
            update_interest conn;
            (* a parse rejection enqueues its response directly *)
            if not (Queue.is_empty conn.c_out) then try_flush conn
          end
    and on_event conn = function
      | `Read -> on_readable conn
      | `Write -> try_flush conn
    in
    let reject_overload fd =
      record_rejected "max_connections";
      let resp = Http.error 503 "server at connection capacity\n" in
      let s = Http.serialize_header ~keep_alive:false resp ^ resp.Http.body in
      (* lint: reactor-ok best-effort single write of a tiny 503 to a
         fresh socket whose buffer is empty; a short or failed write
         just loses the courtesy body before the close below *)
      (try ignore (Unix.write_substring fd s 0 (String.length s))
       with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    in
    let rec do_accept () =
      (* lint: reactor-ok lsock is O_NONBLOCK and the loop signalled a
         pending connection; EAGAIN from a raced-away one is handled *)
      match Unix.accept ~cloexec:true lsock with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception
          Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE | Unix.ECONNABORTED), _, _)
        ->
          Log.warn (fun m -> m "accept failed transiently")
      | fd, _ ->
          if !stopping then (
            try Unix.close fd with Unix.Unix_error _ -> ())
          else if Hashtbl.length conns >= max_connections then begin
            reject_overload fd;
            do_accept ()
          end
          else begin
            Metrics.counter "dsvc_server_connections_total"
              ~help:"TCP connections accepted";
            (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            let conn =
              {
                c_fd = fd;
                c_parser = Http.Parser.create ();
                c_pending = Queue.create ();
                c_out = Queue.create ();
                c_busy = false;
                c_close_after = false;
                c_eof = false;
                c_closed = false;
                c_last_activity = Unix.gettimeofday ();
                c_served = 0;
              }
            in
            Hashtbl.replace conns (Evloop.fd_int fd) conn;
            Evloop.add loop fd ~read:true ~write:false (on_event conn);
            do_accept ()
          end
    in
    let sweep now =
      let expired =
        Hashtbl.fold
          (fun _ c acc ->
            if c.c_closed || c.c_busy || not (Queue.is_empty c.c_out) then acc
            else
              let idle = now -. c.c_last_activity in
              if Http.Parser.in_request c.c_parser then
                if idle > request_timeout then `Timeout c :: acc else acc
              else if Queue.is_empty c.c_pending && idle > idle_timeout then
                `Idle c :: acc
              else acc)
          conns []
      in
      List.iter
        (function
          | `Idle c -> close_conn c
          | `Timeout c ->
              (* mid-request and silent for too long: a 408, then close *)
              record_rejected "timeout";
              enqueue_response c ~keep:false
                (Http.error 408 "request timeout\n");
              try_flush c)
        expired
    in
    Evloop.add loop lsock ~read:true ~write:false (fun _ -> do_accept ());
    if sampler_armed then
      Evloop.add_timer loop
        ~period:(Timeseries.step (Repo.timeseries repo))
        sampler_tick;
    Fun.protect
      ~finally:(fun () ->
        restore_signals ();
        Mutex.lock jobs_mutex;
        quit := true;
        Condition.broadcast jobs_cond;
        Mutex.unlock jobs_mutex;
        Thread.join executor;
        let all = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
        List.iter close_conn all;
        if !listener_open then begin
          listener_open := false;
          try Unix.close lsock with Unix.Unix_error _ -> ()
        end;
        Evloop.close loop)
      (fun () ->
        while
          (not !stop)
          &&
          if !stopping then
            Hashtbl.length conns > 0
            && Unix.gettimeofday () < !drain_deadline
          else true
        do
          Evloop.wait loop ~timeout:0.2;
          sweep (Unix.gettimeofday ())
        done);
    if !stop then begin
      (* Signal-driven shutdown is a flight-dump trigger: persist the
         recorder so the operator can see what the server was doing
         right before the SIGTERM (DESIGN.md §11). A clean ring means
         nothing happened — write nothing. *)
      if Flight.event_count () > 0 then begin
        let path = Flight.default_path () in
        match Fsutil.write_file path (Flight.to_json ()) with
        | Ok () -> Printf.printf "dsvc: wrote flight record to %s\n%!" path
        | Error e ->
            Log.warn (fun m -> m "cannot write flight record %s: %s" path e)
      end;
      Printf.printf "dsvc server shutting down\n%!"
    end;
    Ok ()
  with Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
