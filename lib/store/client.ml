module Retry = Versioning_util.Retry
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Context = Versioning_obs.Context

let log_src = Logs.Src.create "dsvc.client" ~doc:"dsvc HTTP client"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A cached connection: both channel views share [fd]; closing the fd
   once releases everything. *)
type conn_state = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type t = {
  host : string;
  port : int;
  timeout : float;
  retries : int;
  keepalive : bool;
  lock : Mutex.t;  (* serializes the exchange and guards [cached] *)
  mutable cached : conn_state option;
}

let connect ?(timeout = 10.0) ?(retries = 3) ?(keepalive = true) ~host ~port () =
  { host; port; timeout; retries; keepalive; lock = Mutex.create (); cached = None }

let close t =
  Mutex.lock t.lock;
  (match t.cached with
  | None -> ()
  | Some c ->
      t.cached <- None;
      (try Unix.close c.fd with Unix.Unix_error _ -> ()));
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

let percent_encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* A request path from its segments, each escaped: a ref name may
   carry '/', '?', '#' or '%'. *)
let path_of segments =
  String.concat "" (List.map (fun s -> "/" ^ percent_encode s) segments)

let record_conn mode =
  Metrics.counter "dsvc_client_connections_total"
    ~labels:[ ("mode", mode) ]
    ~help:"TCP connections used by the HTTP client, by mode (new/reused)"

(* A cached connection is only trusted if nothing is readable on it:
   readable-while-idle means the server closed it (EOF pending) or the
   framing is out of sync — either way it is dead to us. *)
let conn_alive c =
  match Unix.select [ c.fd ] [] [] 0.0 with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

let fresh_conn t addr =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt_float sock Unix.SO_RCVTIMEO t.timeout;
     Unix.setsockopt_float sock Unix.SO_SNDTIMEO t.timeout
   with Unix.Unix_error _ -> ());
  match Unix.connect sock addr with
  | () ->
      record_conn "new";
      {
        fd = sock;
        ic = Unix.in_channel_of_descr sock;
        oc = Unix.out_channel_of_descr sock;
      }
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e

let attempt t ~ctx ~meth ~path ~query ~body =
  match resolve_addr t.host t.port with
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
          match t.cached with
          | Some c ->
              t.cached <- None;
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
        let exchange () =
          let target =
            if query = [] then path
            else
              path ^ "?"
              ^ String.concat "&"
                  (List.map
                     (fun (k, v) -> percent_encode k ^ "=" ^ percent_encode v)
                     query)
          in
          (* Cross-process trace propagation: the server joins this
             operation's trace via [traceparent] and echoes/logs the
             request id (DESIGN.md §11). The parent span is our
             current span when tracing is on. *)
          let traceparent =
            Context.to_traceparent ?span:(Trace.current_id ()) ctx
          in
          sent := true;
          output_string c.oc
            (Printf.sprintf
               "%s %s HTTP/1.1\r\nHost: %s\r\nConnection: %s\r\n\
                Traceparent: %s\r\nX-Dsvc-Request-Id: %s\r\n\
                Content-Length: %d\r\n\r\n%s"
               meth target t.host
               (if t.keepalive then "keep-alive" else "close")
               traceparent ctx.Context.request_id (String.length body) body);
          flush c.oc;
          (* Parse the status line, headers, and Content-Length body. *)
          let line () =
            match In_channel.input_line c.ic with
            | None -> failwith "connection closed mid-response"
            | Some l ->
                if String.length l > 0 && l.[String.length l - 1] = '\r' then
                  String.sub l 0 (String.length l - 1)
                else l
          in
          let status_line = line () in
          let status =
            match String.split_on_char ' ' status_line with
            | _ :: code :: _ -> (
                match int_of_string_opt code with
                | Some c -> c
                | None -> failwith ("bad status line: " ^ status_line))
            | _ -> failwith ("bad status line: " ^ status_line)
          in
          let content_length = ref None in
          let server_closes = ref false in
          let rec headers () =
            let l = line () in
            if l <> "" then begin
              (match String.index_opt l ':' with
              | Some i -> (
                  let name = String.lowercase_ascii (String.sub l 0 i) in
                  let value =
                    String.trim (String.sub l (i + 1) (String.length l - i - 1))
                  in
                  match name with
                  | "content-length" ->
                      content_length := int_of_string_opt value
                  | "connection" ->
                      if String.lowercase_ascii value = "close" then
                        server_closes := true
                  | _ -> ())
              | None -> ());
              headers ()
            end
          in
          headers ();
          let body =
            match !content_length with
            | Some len -> really_input_string c.ic len
            | None -> In_channel.input_all c.ic
          in
          (* Reuse only when both sides committed to it and the body
             was delimited (input_all just consumed to EOF). *)
          let keep =
            t.keepalive && (not !server_closes) && !content_length <> None
          in
          (status, body, keep)
        in
        (match exchange () with
        | status, body, keep ->
            if keep then t.cached <- Some c
            else (try Unix.close c.fd with Unix.Unix_error _ -> ());
            Ok (status, body)
        | exception e ->
            (try Unix.close c.fd with Unix.Unix_error _ -> ());
            raise e)
      with
      | Unix.Unix_error (err, fn, _) ->
          let message = Printf.sprintf "%s: %s" fn (Unix.error_message err) in
          if !reused then
            Error
              {
                kind = Stale_connection;
                transient = transient_unix_error err && idempotent meth;
                message = "reused connection failed: " ^ message;
                stage = "reuse";
              }
          else
            Error
              {
                kind = (if !sent then Io else Connect);
                transient =
                  transient_unix_error err && ((not !sent) || idempotent meth);
                message;
                stage = (if !sent then "io" else "connect");
              }
      | Failure e | Sys_error e ->
          if !reused then
            Error
              {
                kind = Stale_connection;
                transient = idempotent meth;
                message = "reused connection failed: " ^ e;
                stage = "reuse";
              }
          else
            Error
              {
                kind = Io;
                transient = idempotent meth;
                message = e;
                stage = (if !sent then "io" else "connect");
              }
      | End_of_file ->
          if !reused then
            Error
              {
                kind = Stale_connection;
                transient = idempotent meth;
                message = "reused connection closed mid-response";
                stage = "reuse";
              }
          else
            Error
              {
                kind = Io;
                transient = idempotent meth;
                message = "unexpected end of response";
                stage = "io";
              }
      | Sys_blocked_io ->
          (* SO_RCVTIMEO expiring under a buffered channel read raises
             Sys_blocked_io, not Unix_error EAGAIN — same transport
             timeout, same mapping (a raw exception here would crash
             the failover path instead of trying the next node) *)
          if !reused then
            Error
              {
                kind = Stale_connection;
                transient = idempotent meth;
                message = "reused connection timed out mid-response";
                stage = "reuse";
              }
          else
            Error
              {
                kind = Io;
                transient = idempotent meth;
                message = "response timed out";
                stage = (if !sent then "io" else "connect");
              })

let request_detailed t ~meth ~path ?(query = []) ?(body = "") () =
  (* One trace context per operation: reuse the caller's ambient
     context when there is one (so a caller-held context shows up in
     the server's access log), otherwise mint a fresh one. Retries
     share the context — the same request id across attempts is what
     lets the server log tie them together. *)
  let ctx =
    match Context.current () with Some c -> c | None -> Context.make ()
  in
  Context.with_context ctx @@ fun () ->
  Trace.with_span "client.request" @@ fun () ->
  let policy = { Retry.default with max_attempts = max 1 t.retries } in
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
        match attempt t ~ctx ~meth ~path ~query ~body with
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

let tag t name ?at () =
  unit_post t (path_of [ "tag"; name ])
    (match at with Some v -> [ ("at", string_of_int v) ] | None -> [])

let branch t name ?at () =
  unit_post t (path_of [ "branch"; name ])
    (match at with Some v -> [ ("at", string_of_int v) ] | None -> [])

let switch t name = unit_post t (path_of [ "switch"; name ]) []

let verify t =
  Result.map (fun _ -> ()) (expect_ok t ~meth:"GET" ~path:"/verify" ())

(* ---- cluster support ---- *)

let endpoint t = Printf.sprintf "%s:%d" t.host t.port

let health t = Result.map kv_body (expect_ok t ~meth:"GET" ~path:"/health" ())

(* The failure detector's probe: one attempt, no backoff — a probe
   that silently retried would hide exactly the flakiness the
   detector exists to measure. *)
let ping t =
  match request { t with retries = 1 } ~meth:"GET" ~path:"/health" () with
  | Ok (s, _) when s >= 200 && s < 300 -> Ok ()
  | Ok (s, body) -> Error (Printf.sprintf "health %d: %s" s (String.trim body))
  | Error _ as e -> e

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
    ping = (fun () -> ping t);
  }
