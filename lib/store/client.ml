module Retry = Versioning_util.Retry
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Context = Versioning_obs.Context
module Evloop = Versioning_util.Evloop

let log_src = Logs.Src.create "dsvc.client" ~doc:"dsvc HTTP client"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A cached connection: the socket and the parser holding what has
   been read from it. *)
type conn_state = { fd : Unix.file_descr; parser : Http.Parser.t }

(* One server and its kept-alive connection. [name] is "host:port",
   the server's name on the {!Ring} and in the {!Detector}. *)
type endpoint = {
  host : string;
  port : int;
  name : string;
  mutable cached : conn_state option;
}

type t = {
  endpoints : endpoint list;  (* never empty; in configured order *)
  detector : Detector.t option;  (* None: one endpoint, no failover *)
  timeout : float;
  retries : int;
  keepalive : bool;
  lock : Mutex.t;  (* serializes the exchange and guards every [cached] *)
  rbuf : Bytes.t;  (* read scratch, used under [lock] *)
}

let endpoint_of host port =
  { host; port; name = Printf.sprintf "%s:%d" host port; cached = None }

let make ?(timeout = 10.0) ?(retries = 3) ?(keepalive = true) endpoints
    detector =
  { endpoints; detector; timeout; retries; keepalive; lock = Mutex.create ();
    rbuf = Bytes.create 65536 }

let connect ?timeout ?retries ?keepalive ~host ~port () =
  make ?timeout ?retries ?keepalive [ endpoint_of host port ] None

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad endpoint %S (want host:port)" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some port when host <> "" && port > 0 && port < 65536 ->
          Ok (host, port)
      | _ -> Error (Printf.sprintf "bad endpoint %S (want host:port)" s))

let connect_many ?timeout ?retries ?detector names =
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse_endpoint s with
        | Error _ as e -> e
        | Ok (host, port) -> build (endpoint_of host port :: acc) rest)
  in
  if names = [] then Error "no endpoints given"
  else
    Result.map
      (fun endpoints ->
        let detector =
          match detector with Some d -> d | None -> Detector.create ()
        in
        make ?timeout ?retries endpoints (Some detector))
      (build [] names)

let close t =
  Mutex.lock t.lock;
  List.iter
    (fun ep ->
      match ep.cached with
      | None -> ()
      | Some c ->
          ep.cached <- None;
          (try Unix.close c.fd with Unix.Unix_error _ -> ()))
    t.endpoints;
  Mutex.unlock t.lock

(* Numeric address or DNS name — the paper's client/server model
   shouldn't require the caller to pre-resolve hostnames. *)
let resolve_addr host port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
      match
        Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
      with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
          Ok (Unix.ADDR_INET (addr, port))
      | _ -> (
          (* some resolvers only answer without the family hint *)
          match
            Unix.getaddrinfo host (string_of_int port)
              [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
          with
          | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
              Ok (Unix.ADDR_INET (addr, port))
          | _ -> Error (Printf.sprintf "cannot resolve host %S" host)))

(* Failures before the request is sent (resolution, connect) are safe
   to retry for any method; failures after it only for idempotent
   methods (GET/DELETE) — a retried POST /commit could commit twice.
   [stage] labels the retry counter: where in the exchange the failure
   happened. [Stale_connection] is the reuse hazard: the server closed
   a kept-alive connection (idle timeout, restart) between or during
   requests — always safe to retry by reconnecting when the method is
   idempotent, never blindly for a POST (the server may have processed
   it before closing). *)
type error_kind = Resolve | Connect | Io | Stale_connection

type error = {
  kind : error_kind;
  transient : bool;
  message : string;
  stage : string;
}

let idempotent meth = meth = "GET" || meth = "DELETE"

let transient_unix_error = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE
  | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.ENETDOWN
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR ->
      true
  | _ -> false

(* A request path from its segments, each escaped: a ref name may
   carry '/', '?', '#' or '%'. *)
let path_of segments =
  String.concat "" (List.map (fun s -> "/" ^ Http.percent_encode s) segments)

let record_conn mode =
  Metrics.counter "dsvc_client_connections_total"
    ~labels:[ ("mode", mode) ]
    ~help:"TCP connections used by the HTTP client, by mode (new/reused)"

(* A cached connection is only trusted if nothing is pending on it:
   readable-while-idle means the server closed it (EOF pending) or the
   framing is out of sync — either way it is dead to us. poll(2), not
   select(2): select fails on descriptors past FD_SETSIZE, which would
   make every connection of a busy process look dead. *)
let conn_alive c =
  match Evloop.input_pending c.fd with
  | pending -> not pending
  | exception Unix.Unix_error _ -> false

(* A failed attempt as a typed error. [transient] says whether the
   failure itself may clear up; whether a retry is safe also depends on
   whether the request was [sent] and on the method. A failure on a
   [reused] connection is [Stale_connection], reported with
   [reused_message]. *)
let failed ~meth ~sent ~reused ~transient message reused_message =
  Error
    (if reused then
       {
         kind = Stale_connection;
         transient = transient && idempotent meth;
         message = reused_message;
         stage = "reuse";
       }
     else
       {
         kind = (if sent then Io else Connect);
         transient = transient && ((not sent) || idempotent meth);
         message;
         stage = (if sent then "io" else "connect");
       })

(* A timeout expiring under [Unix.read] or [Unix.write] is EAGAIN,
   which [transient_unix_error] maps. No Nagle delay: a request's head
   and body are two writes. *)
let fresh_conn t addr =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float sock Unix.SO_RCVTIMEO t.timeout;
     Unix.setsockopt_float sock Unix.SO_SNDTIMEO t.timeout;
     Unix.setsockopt sock Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  match Unix.connect sock addr with
  | () ->
      record_conn "new";
      { fd = sock; parser = Http.Parser.create () }
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s
      (off + Unix.write_substring fd s off (String.length s - off))

(* Read into [c]'s parser until it frames a response. A rejection
   (bad framing, or a head or body past the parser's limits) fails the
   exchange like a transport error on a fresh connection. *)
let rec read_reply t c =
  match Http.Parser.next_response c.parser with
  | `Response r -> r
  | `Reject r -> failwith ("bad response: " ^ r.Http.Parser.reject_reason)
  | `Partial ->
      let n = Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) in
      if n = 0 then raise End_of_file;
      Http.Parser.feed c.parser t.rbuf 0 n;
      read_reply t c

let attempt t ep ~ctx ~meth ~path ~query ~body =
  match resolve_addr ep.host ep.port with
  | Error message ->
      Error { kind = Resolve; transient = false; message; stage = "resolve" }
  | Ok addr -> (
      Mutex.lock t.lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) @@ fun () ->
      (* [sent] splits failures into before/after the request hit the
         wire, which decides retryability for non-idempotent methods;
         [reused] marks failures on a kept-alive connection the server
         may have closed under us. *)
      let sent = ref false in
      let reused = ref false in
      try
        let c =
          match ep.cached with
          | Some c ->
              ep.cached <- None;
              if conn_alive c then begin
                reused := true;
                record_conn "reused";
                c
              end
              else begin
                (try Unix.close c.fd with Unix.Unix_error _ -> ());
                fresh_conn t addr
              end
          | None -> fresh_conn t addr
        in
        let target =
          if query = [] then path
          else
            path ^ "?"
            ^ String.concat "&"
                (List.map
                   (fun (k, v) ->
                     Http.percent_encode k ^ "=" ^ Http.percent_encode v)
                   query)
        in
        (* Cross-process trace propagation: the server joins this
           operation's trace via [traceparent] and echoes/logs the
           request id (DESIGN.md §11). The parent span is our current
           span when tracing is on. *)
        let headers =
          [
            ("Host", ep.host);
            ( "Traceparent",
              Context.to_traceparent ?span:(Trace.current_id ()) ctx );
            ("X-Dsvc-Request-Id", ctx.Context.request_id);
          ]
        in
        sent := true;
        (match
           write_all c.fd
             (Http.serialize_request_header ~keep_alive:t.keepalive ~meth
                ~target headers ~content_length:(String.length body))
             0;
           write_all c.fd body 0;
           read_reply t c
         with
        | { Http.reply_status; reply_headers; reply_body; reply_version } ->
            (* Reuse only when both sides committed to it and the server
               sent nothing past the response it framed. *)
            if
              t.keepalive
              && Http.keep_alive ~version:reply_version reply_headers
              && Http.Parser.buffered c.parser = 0
            then ep.cached <- Some c
            else (try Unix.close c.fd with Unix.Unix_error _ -> ());
            Ok (reply_status, reply_body)
        | exception e ->
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            raise e)
      with
      | Unix.Unix_error (err, fn, _) ->
          let message = Printf.sprintf "%s: %s" fn (Unix.error_message err) in
          failed ~meth ~sent:!sent ~reused:!reused
            ~transient:(transient_unix_error err) message
            ("reused connection failed: " ^ message)
      | Failure e ->
          failed ~meth ~sent:!sent ~reused:!reused ~transient:true e
            ("reused connection failed: " ^ e)
      | End_of_file ->
          failed ~meth ~sent:!sent ~reused:!reused ~transient:true
            "unexpected end of response"
            "reused connection closed mid-response")

(* One endpoint's share of a request: up to [attempts] attempts with
   backoff, then the per-status counter. *)
let on_endpoint t ep ~ctx ~attempts ~meth ~path ~query ~body =
  let policy = { Retry.default with max_attempts = max 1 attempts } in
  (* lint: mutable-ok last failure's stage, read only by the retry
     metrics callback below *)
  let last_stage = ref "connect" in
  let result =
    Retry.with_policy ~policy
      ~retryable:(fun f -> f.transient)
      ~on_retry:(fun ~attempt ~delay ->
        Metrics.counter "dsvc_client_retries_total"
          ~labels:[ ("method", meth); ("stage", !last_stage) ]
          ~help:"Backoff sleeps taken by the HTTP client, by method and failure stage";
        Log.warn (fun m ->
            m "retrying %s %s after attempt %d (sleeping %.3fs)" meth path
              attempt delay))
      (fun ~attempt:_ ->
        match attempt t ep ~ctx ~meth ~path ~query ~body with
        | Error f as e ->
            last_stage := f.stage;
            e
        | Ok _ as ok -> ok)
  in
  (* Per-status outcome counter: 404 vs 409 vs 500 responses are
     distinguishable in `dsvc metrics`; transport-level failures that
     never produced a status land under "error". *)
  Metrics.counter "dsvc_client_requests_total"
    ~labels:
      [
        ("method", meth);
        ( "status",
          match result with
          | Ok (status, _) -> string_of_int status
          | Error _ -> "error" );
      ]
    ~help:"HTTP client requests, by method and response status";
  result

(* Failover order: Up endpoints in configured order, then expired
   probations, and — only when nothing better exists — endpoints still
   in probation, because a request against a truly dead node costs a
   connect timeout. *)
let candidates detector endpoints =
  let ranked state =
    List.filter
      (fun ep -> Detector.state detector ~name:ep.name = state)
      endpoints
  in
  ranked `Up @ ranked `Probe @ ranked `Down

(* [attempts] is the per-endpoint budget: [t.retries] for requests,
   1 for [ping]. *)
let send t ~attempts ~meth ~path ?(query = []) ?(body = "") () =
  (* One trace context per operation: reuse the caller's ambient
     context when there is one (so a caller-held context shows up in
     the server's access log), otherwise mint a fresh one. Retries
     and failovers share the context — the same request id across
     attempts is what lets the server logs tie them together. *)
  let ctx =
    match Context.current () with Some c -> c | None -> Context.make ()
  in
  Context.with_context ctx @@ fun () ->
  Trace.with_span "client.request" @@ fun () ->
  let run ep = on_endpoint t ep ~ctx ~attempts ~meth ~path ~query ~body in
  match t.detector with
  | None -> run (List.hd t.endpoints)
  | Some detector ->
      (* Move on ONLY after a transport failure (no HTTP status came
         back): an HTTP error is the cluster answering, and re-sending
         a mutation elsewhere could apply it twice (DESIGN.md §12). *)
      let rec go = function
        | [] -> invalid_arg "Client: no endpoints"
        | ep :: rest -> (
            match run ep with
            | Ok _ as ok ->
                Detector.ok detector ~name:ep.name;
                ok
            | Error e as failure ->
                Detector.fail detector ~name:ep.name e.message;
                Metrics.counter "dsvc_cluster_client_failover_total"
                  ~labels:[ ("from", ep.name) ]
                  ~help:
                    "Requests moved to another endpoint after a transport \
                     error";
                Log.warn (fun m ->
                    m "failover: %s %s on %s failed (%s), trying next" meth
                      path ep.name e.message);
                if rest = [] then failure else go rest)
      in
      go (candidates detector t.endpoints)

let request_detailed t = send t ~attempts:t.retries

let request t ~meth ~path ?query ?body () =
  Result.map_error
    (fun e -> e.message)
    (request_detailed t ~meth ~path ?query ?body ())

let expect_ok t ~meth ~path ?query ?body () =
  match request t ~meth ~path ?query ?body () with
  | Error _ as e -> e
  | Ok (status, body) when status >= 200 && status < 300 -> Ok body
  | Ok (_, body) -> Error (String.trim body)

let versions t =
  Result.map
    (fun body ->
      String.split_on_char '\n' (String.trim body)
      |> List.filter (fun l -> l <> "")
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with
             | id :: parents :: rest -> (
                 match int_of_string_opt id with
                 | Some id ->
                     let parents =
                       if parents = "-" then []
                       else
                         String.split_on_char ',' parents
                         |> List.filter_map int_of_string_opt
                     in
                     Some (id, parents, String.concat " " rest)
                 | None -> None)
             | _ -> None))
    (expect_ok t ~meth:"GET" ~path:"/versions" ())

let checkout t name =
  expect_ok t ~meth:"GET" ~path:(path_of [ "checkout"; name ]) ()

let commit t ?(message = "") ?parents content =
  let query =
    ("message", message)
    ::
    (match parents with
    | None -> []
    | Some ps -> [ ("parents", String.concat "," (List.map string_of_int ps)) ])
  in
  Result.bind
    (expect_ok t ~meth:"POST" ~path:"/commit" ~query ~body:content ())
    (fun body ->
      match int_of_string_opt (String.trim body) with
      | Some id -> Ok id
      | None -> Error ("unexpected commit response: " ^ body))

let kv_body body =
  String.split_on_char '\n' (String.trim body)
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> if l = "" then None else Some (l, ""))

let stats t = Result.map kv_body (expect_ok t ~meth:"GET" ~path:"/stats" ())

let optimize t strategy =
  Result.map kv_body
    (expect_ok t ~meth:"POST" ~path:"/optimize"
       ~query:[ ("strategy", strategy) ]
       ())

let diff t a b = expect_ok t ~meth:"GET" ~path:(path_of [ "diff"; a; b ]) ()

let unit_post t path query =
  Result.map (fun _ -> ()) (expect_ok t ~meth:"POST" ~path ~query ())

let at_query = function Some v -> [ ("at", string_of_int v) ] | None -> []

let tag t name ?at () = unit_post t (path_of [ "tag"; name ]) (at_query at)

let branch t name ?at () =
  unit_post t (path_of [ "branch"; name ]) (at_query at)

let switch t name = unit_post t (path_of [ "switch"; name ]) []

let verify t =
  Result.map (fun _ -> ()) (expect_ok t ~meth:"GET" ~path:"/verify" ())

(* ---- cluster support ---- *)

let endpoint t = (List.hd t.endpoints).name

let health t = Result.map kv_body (expect_ok t ~meth:"GET" ~path:"/health" ())

(* The failure detector's and the sampler's probe: one attempt, no
   backoff — a probe that silently retried would hide exactly the
   flakiness the detector exists to measure. *)
let ping t =
  match send t ~attempts:1 ~meth:"GET" ~path:"/health" () with
  | Ok (s, body) when s >= 200 && s < 300 -> Ok (kv_body body)
  | Ok (s, body) -> Error (Printf.sprintf "health %d: %s" s (String.trim body))
  | Error e -> Error e.message

let get_blob t digest =
  expect_ok t ~meth:"GET" ~path:(path_of [ "blob"; digest ]) ()

let put_blob t ~digest content =
  Result.map
    (fun _ -> ())
    (expect_ok t ~meth:"POST"
       ~path:(path_of [ "blob"; digest ])
       ~body:content ())

let mem_blob t digest =
  let path = path_of [ "blob"; digest; "stat" ] in
  match request t ~meth:"GET" ~path () with
  | Ok (200, _) -> true
  | Ok _ | Error _ -> false

let delete_blob t digest =
  ignore (request t ~meth:"DELETE" ~path:(path_of [ "blob"; digest ]) ())

let list_blobs t =
  match expect_ok t ~meth:"GET" ~path:"/blobs" () with
  | Error _ -> []
  | Ok body ->
      String.split_on_char '\n' (String.trim body)
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with
             | [ digest; size ] ->
                 Option.map (fun s -> (digest, s)) (int_of_string_opt size)
             | _ -> None)

let quarantine_blob t digest =
  expect_ok t ~meth:"POST"
    ~path:(path_of [ "blob"; digest; "quarantine" ])
    ()

let anti_entropy t =
  Result.map kv_body (expect_ok t ~meth:"POST" ~path:"/anti-entropy" ())

let push_meta t content =
  Result.map
    (fun body -> String.trim body = "adopted")
    (expect_ok t ~meth:"POST" ~path:"/meta/sync" ~body:content ())

let fetch_meta t = expect_ok t ~meth:"GET" ~path:"/meta" ()

(* A peer's store as a {!Backend.t}: what {!Replicated} composes over.
   Blob puts are idempotent (content-addressed), so cross-attempt
   duplication is harmless. *)
let backend t =
  {
    Backend.name = endpoint t;
    put = (fun ~digest content -> put_blob t ~digest content);
    get = (fun ~digest -> get_blob t digest);
    mem = (fun ~digest -> mem_blob t digest);
    delete = (fun ~digest -> delete_blob t digest);
    list = (fun () -> list_blobs t);
    total_bytes =
      (fun () ->
        List.fold_left (fun acc (_, s) -> acc + s) 0 (list_blobs t));
    quarantine = (fun ~digest -> quarantine_blob t digest);
    ping = (fun () -> Result.map ignore (ping t));
    batch = Backend.unbatched;
  }
