(* The typed HTTP client against a live server thread. *)

open Versioning_store
module Faults = Versioning_util.Faults
module Evloop = Versioning_util.Evloop
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics

let temp_dir () =
  let path = Filename.temp_file "dsvc_client" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let two_version_repo () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"second" "alpha\nbeta\ngamma") in
  repo

(* [Server.serve] on an ephemeral port in a thread; [k] gets the port.
   The server stops after 32 responses: the finally drains what is
   left of that budget so the thread exits. *)
let with_live_server repo k =
  let bound = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Server.serve repo ~port:0 ~max_requests:32
             ~on_listen:(Atomic.set bound) ()))
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get bound = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let port = Atomic.get bound in
  if port = 0 then Alcotest.fail "server did not start listening";
  let finally () =
    let drainer = Client.connect ~retries:1 ~host:"127.0.0.1" ~port () in
    let rec drain n =
      if n > 0 then
        match Client.request drainer ~meth:"GET" ~path:"/stats" () with
        | Ok _ -> drain (n - 1)
        | Error _ -> ()
    in
    drain 32;
    Client.close drainer;
    Thread.join server
  in
  Fun.protect ~finally (fun () -> k port)

let with_server k =
  let repo = two_version_repo () in
  with_live_server repo (fun port ->
      let client = Client.connect ~host:"127.0.0.1" ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () -> k client repo))

let test_full_session () =
  with_server (fun client repo ->
      (* versions *)
      let vs = ok (Client.versions client) in
      Alcotest.(check int) "two versions" 2 (List.length vs);
      (match vs with
      | (id, parents, msg) :: _ ->
          Alcotest.(check int) "newest id" 2 id;
          Alcotest.(check (list int)) "parents" [ 1 ] parents;
          Alcotest.(check string) "message" "second" msg
      | [] -> Alcotest.fail "no versions");
      (* checkout *)
      Alcotest.(check string) "checkout" "alpha\nbeta"
        (ok (Client.checkout client "1"));
      (* commit through the wire, then read back locally *)
      let id =
        ok (Client.commit client ~message:"via http" "alpha\nbeta\ngamma\ndelta")
      in
      Alcotest.(check int) "new id" 3 id;
      Alcotest.(check string) "server stored it" "alpha\nbeta\ngamma\ndelta"
        (ok (Repo.checkout repo 3));
      (* tags and branches *)
      ok (Client.tag client "v1" ~at:1 ());
      Alcotest.(check string) "checkout by tag" "alpha\nbeta"
        (ok (Client.checkout client "v1"));
      ok (Client.branch client "exp" ~at:1 ());
      ok (Client.switch client "main");
      (* diff applies *)
      let d = ok (Client.diff client "1" "2") in
      Alcotest.(check string) "diff applies" "alpha\nbeta\ngamma"
        (Versioning_delta.Line_diff.apply "alpha\nbeta"
           (Versioning_delta.Line_diff.decode d));
      (* stats + optimize + verify *)
      let st = ok (Client.stats client) in
      Alcotest.(check (option string)) "stats versions" (Some "3")
        (List.assoc_opt "versions" st);
      let st = ok (Client.optimize client "min-storage") in
      Alcotest.(check bool) "optimize returns stats" true
        (List.mem_assoc "storage_bytes" st);
      ok (Client.verify client);
      (* errors surface *)
      (match Client.checkout client "99" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown version must error");
      match Client.optimize client "bogus" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad strategy must error")

let test_connection_refused () =
  let client = Client.connect ~host:"127.0.0.1" ~port:1 () in
  match Client.versions client with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must fail to connect"

let test_hostname_resolution () =
  with_server (fun client _repo ->
      (* a DNS name, not an IP literal, must resolve via getaddrinfo *)
      let _, port = ok (Client.parse_endpoint (Client.endpoint client)) in
      let named = Client.connect ~host:"localhost" ~port () in
      let st = ok (Client.stats named) in
      Alcotest.(check bool) "stats over resolved host" true
        (List.mem_assoc "versions" st))

let test_get_retries_dropped_connection () =
  Faults.reset ();
  with_server (fun client _repo ->
      (* the server drops the first response on the floor; the GET is
         idempotent, so the client silently retries and succeeds *)
      Faults.arm ~site:"http.write_response" Faults.Drop;
      let st = ok (Client.stats client) in
      Alcotest.(check bool) "retried to success" true
        (List.mem_assoc "versions" st);
      Alcotest.(check bool) "drop actually fired" true
        (Faults.hits ~site:"http.write_response" >= 1))

let test_post_not_retried_after_send () =
  Faults.reset ();
  with_server (fun client repo ->
      let before = List.length (Repo.log repo) in
      (* response dropped AFTER the server applied the commit: the
         client must surface the error, not retry (and double-commit) *)
      Faults.arm ~site:"http.write_response" Faults.Drop;
      (match Client.commit client ~message:"once" "fresh content" with
      | Ok _ -> Alcotest.fail "dropped response must surface as an error"
      | Error _ -> ());
      Alcotest.(check int) "commit applied exactly once" (before + 1)
        (List.length (Repo.log repo)))

let test_request_counters_by_status () =
  Obs.with_enabled true @@ fun () ->
  with_server (fun client _repo ->
      Metrics.reset ();
      (match Client.checkout client "1" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checkout failed: %s" e);
      (match Client.checkout client "99" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown version must error");
      let text = Metrics.to_prometheus () in
      Alcotest.(check bool) "200s counted" true
        (contains text
           {|dsvc_client_requests_total{method="GET",status="200"} 1|});
      Alcotest.(check bool) "404s counted separately" true
        (contains text
           {|dsvc_client_requests_total{method="GET",status="404"} 1|});
      Metrics.reset ())

(* Ref names carrying characters reserved in a URL path survive the
   round trip: the client escapes each path segment, the server splits
   before decoding. *)
let test_reserved_ref_names () =
  with_server (fun client repo ->
      List.iter
        (fun name ->
          ok (Client.tag client name ~at:1 ());
          ok (Client.branch client name ~at:1 ());
          ok (Client.switch client name);
          Alcotest.(check string) ("checkout " ^ name) "alpha\nbeta"
            (ok (Client.checkout client name));
          ignore (ok (Client.diff client name "2")))
        [ "release/1.0"; "a?b" ];
      Alcotest.(check (list (pair string int))) "tags as named"
        [ ("a?b", 1); ("release/1.0", 1) ]
        (List.sort compare (Repo.tags repo));
      match Client.request client ~meth:"GET" ~path:"/tags" () with
      | Ok (200, body) ->
          Alcotest.(check bool) "/tags lists a?b" true
            (List.mem "a?b 1" (String.split_on_char '\n' body))
      | Ok (status, _) -> Alcotest.failf "/tags: HTTP %d" status
      | Error e -> Alcotest.failf "/tags: %s" e)

(* A TCP socket bound to an ephemeral loopback port, and the port. *)
let bind_ephemeral () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> (sock, port)
  | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"

(* A server that answers each connection it accepts with the next of
   [responses]: it reads the request head (the client sends no body)
   and writes. It holds every connection open until it has answered
   them all, or until 2 s pass with no new connection, then closes. *)
let with_fake_server responses k =
  let sock, port = bind_ephemeral () in
  Unix.listen sock 4;
  let buf = Bytes.create 4096 in
  let rec read_head fd seen =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    let seen = seen ^ Bytes.sub_string buf 0 n in
    let l = String.length seen in
    if n > 0 && not (l >= 4 && String.sub seen (l - 4) 4 = "\r\n\r\n") then
      read_head fd seen
  in
  let rec serve opened = function
    | [] -> opened
    | response :: rest -> (
        match Unix.select [ sock ] [] [] 2.0 with
        | [], _, _ -> opened
        | _ ->
            let fd, _ = Unix.accept sock in
            read_head fd "";
            ignore (Unix.write_substring fd response 0 (String.length response));
            serve (fd :: opened) rest)
  in
  let server =
    Thread.create (fun () -> List.iter Unix.close (serve [] responses)) ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close sock)
    (fun () -> k port)

(* A response must be framed as the server frames a request: one
   Content-Length of decimal digits no larger than the body limit,
   header lines with a colon, a head within 16 KiB. Anything else is an
   [Io] error, never an exception, a read to end of file or a guess. *)
let test_bad_response_content_length () =
  let framed cl body =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" cl body
  in
  List.iter
    (fun (label, response) ->
      with_fake_server [ response ] @@ fun port ->
      let client = Client.connect ~retries:1 ~host:"127.0.0.1" ~port () in
      match Client.request_detailed client ~meth:"GET" ~path:"/stats" () with
      | Ok (status, _) -> Alcotest.failf "%s accepted (HTTP %d)" label status
      | Error e ->
          Alcotest.(check bool) ("Io error for " ^ label) true
            (e.Client.kind = Client.Io))
    [
      ("-1", framed "-1" "");
      ("0x10", framed "0x10" "0123456789abcdef");
      ("4611686018427387903", framed "4611686018427387903" "");
      ( "above the body limit",
        framed
          (string_of_int (Http.Parser.default_limits.max_body_bytes + 1))
          "" );
      ( "repeated Content-Length",
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello"
      );
      ( "header line without a colon",
        "HTTP/1.1 200 OK\r\nbadheader\r\nContent-Length: 2\r\n\r\nok" );
      ("no Content-Length", "HTTP/1.1 200 OK\r\n\r\nok");
      ( "a header line over 16 KiB",
        "HTTP/1.1 200 OK\r\nX-Long: " ^ String.make (17 * 1024) 'a'
        ^ "\r\nContent-Length: 2\r\n\r\nok" );
    ]

(* Bytes after the framed body mean the stream is out of step with the
   responses: the connection is not reused even though the server
   keeps it open. The fake server answers each connection once, so a
   second answer proves the second request opened a new connection. *)
let test_trailing_bytes_reconnect () =
  let reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" in
  with_fake_server [ reply ^ "junk"; reply ] @@ fun port ->
  let client =
    Client.connect ~timeout:1.0 ~retries:1 ~host:"127.0.0.1" ~port ()
  in
  List.iter
    (fun n ->
      match Client.request client ~meth:"GET" ~path:"/stats" () with
      | Ok (200, "ok") -> ()
      | Ok (status, body) -> Alcotest.failf "request %d: %d %S" n status body
      | Error e -> Alcotest.failf "request %d: %s" n e)
    [ 1; 2 ];
  Client.close client

(* A failover client escapes ref names like a one-endpoint client: a
   ref name that needs escaping reaches the route it names. *)
let test_failover_client_encodes_refs () =
  with_server (fun client _ ->
      ok (Client.tag client "release/1.0" ~at:1 ());
      let cc = ok (Client.connect_many [ Client.endpoint client ]) in
      Alcotest.(check string) "checkout release/1.0" "alpha\nbeta"
        (ok (Client.checkout cc "release/1.0")))

let open_fds () =
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  Array.length (Sys.readdir "/proc/self/fd")

(* A ping on a client that holds no connection keeps the one it opens:
   twenty pings use one connection, not twenty left open. *)
let test_ping_keeps_its_connection () =
  with_server (fun client _ ->
      let before = open_fds () in
      for _ = 1 to 20 do
        ignore (ok (Client.ping client))
      done;
      (* one client socket and the server's end of it *)
      let grown = open_fds () - before in
      if grown > 4 then
        Alcotest.failf "20 pings left %d more descriptors open" grown)

(* A ping that finds its kept-alive connection dead closes it for the
   client too: the next request must not close that descriptor number
   again once an unrelated file has taken it. *)
let test_failed_ping_closes_only_its_socket () =
  let client =
    with_fake_server [ "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" ]
    @@ fun port ->
    let client = Client.connect ~retries:1 ~host:"127.0.0.1" ~port () in
    (match Client.request client ~meth:"GET" ~path:"/health" () with
    | Ok (200, _) -> ()
    | Ok (status, _) -> Alcotest.failf "HTTP %d" status
    | Error e -> Alcotest.failf "first request: %s" e);
    client
  in
  (* the server has closed the kept-alive connection and its listener *)
  (match Client.ping client with
  | Ok _ -> Alcotest.fail "ping of a stopped server succeeded"
  | Error _ -> ());
  (* take the lowest free descriptors, where a stale number lands *)
  let files =
    List.init 16 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
  in
  let close_all () =
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      files
  in
  Fun.protect ~finally:close_all @@ fun () ->
  (match Client.health client with
  | Ok _ -> Alcotest.fail "health of a stopped server succeeded"
  | Error _ -> ());
  List.iter
    (fun fd ->
      match Unix.fstat fd with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          Alcotest.failf "the client closed descriptor %d, an unrelated file"
            (Evloop.fd_int fd))
    files

(* Keep-alive holds for descriptors past FD_SETSIZE (1024): a process
   with many files open still reuses its connection. *)
let test_keepalive_above_fd_setsize () =
  let files = ref [] in
  let close_all () =
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !files
  in
  Fun.protect ~finally:close_all @@ fun () ->
  (try
     for _ = 1 to 1100 do
       files := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !files
     done
   with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
     Alcotest.skip ());
  Obs.with_enabled true @@ fun () ->
  with_server (fun client _ ->
      Metrics.reset ();
      ignore (ok (Client.stats client));
      ignore (ok (Client.stats client));
      let text = Metrics.to_prometheus () in
      List.iter
        (fun line ->
          Alcotest.(check bool) line true (contains text line))
        [
          {|dsvc_client_connections_total{mode="new"} 1|};
          {|dsvc_client_connections_total{mode="reused"} 1|};
        ];
      Metrics.reset ())

(* Failover in one process. A dead endpoint listed first: requests go
   on to the live one and each move is counted; once the detector has
   seen three failures the dead endpoint is tried last. A 404 from the
   first live server is an answer: it comes back as-is, and the second
   server, which holds the ref, sees no request. *)
let test_failover () =
  Obs.with_enabled true @@ fun () ->
  let dead =
    let sock, port = bind_ephemeral () in
    Unix.close sock;
    Printf.sprintf "127.0.0.1:%d" port
  in
  let failovers text =
    let prefix =
      Printf.sprintf {|dsvc_cluster_client_failover_total{from="%s"} |} dead
    in
    List.find_map
      (fun l ->
        let n = String.length prefix in
        if String.length l > n && String.sub l 0 n = prefix then
          Some (String.sub l n (String.length l - n))
        else None)
      (String.split_on_char '\n' text)
  in
  with_live_server (two_version_repo ()) (fun live ->
      Metrics.reset ();
      let cc =
        ok
          (Client.connect_many ~retries:1
             ~detector:(Detector.create ~now:(fun () -> 0.0) ())
             [ dead; Printf.sprintf "127.0.0.1:%d" live ])
      in
      let id = ok (Client.commit cc ~message:"third" "delta") in
      Alcotest.(check string) "checkout after failover" "delta"
        (ok (Client.checkout cc (string_of_int id)));
      Alcotest.(check bool) "versions after failover" true
        (List.exists (fun (v, _, _) -> v = id) (ok (Client.versions cc)));
      Alcotest.(check (option string)) "three failovers" (Some "3")
        (failovers (Metrics.to_prometheus ()));
      ignore (ok (Client.stats cc));
      Alcotest.(check (option string)) "a Down endpoint is tried last"
        (Some "3")
        (failovers (Metrics.to_prometheus ()));
      Client.close cc);
  let second = two_version_repo () in
  ok (Repo.tag second "only2" ~at:1 ());
  with_live_server (two_version_repo ()) @@ fun p1 ->
  with_live_server second @@ fun p2 ->
  Metrics.reset ();
  let cc =
    ok
      (Client.connect_many
         [ Printf.sprintf "127.0.0.1:%d" p1; Printf.sprintf "127.0.0.1:%d" p2 ])
  in
  (match Client.checkout cc "only2" with
  | Ok _ -> Alcotest.fail "the second server answered"
  | Error _ -> ());
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "the first server's 404" true
    (contains text {|dsvc_client_requests_total{method="GET",status="404"} 1|});
  Alcotest.(check bool) "no failover" false
    (contains text "dsvc_cluster_client_failover_total");
  Alcotest.(check bool) "no server answered 200" false
    (contains text {|status="200"|});
  Client.close cc;
  Metrics.reset ()

let suite =
  [
    Alcotest.test_case "reserved characters in ref names" `Quick
      test_reserved_ref_names;
    Alcotest.test_case "full client session" `Quick test_full_session;
    Alcotest.test_case "connection refused" `Quick test_connection_refused;
    Alcotest.test_case "hostname resolution" `Quick test_hostname_resolution;
    Alcotest.test_case "GET retries dropped connection" `Quick
      test_get_retries_dropped_connection;
    Alcotest.test_case "POST not retried after send" `Quick
      test_post_not_retried_after_send;
    Alcotest.test_case "bad response content-length" `Quick
      test_bad_response_content_length;
    Alcotest.test_case "bytes after the body reconnect" `Quick
      test_trailing_bytes_reconnect;
    Alcotest.test_case "request counters by status" `Quick
      test_request_counters_by_status;
    Alcotest.test_case "cluster client encodes ref names" `Quick
      test_failover_client_encodes_refs;
    Alcotest.test_case "ping keeps its connection" `Quick
      test_ping_keeps_its_connection;
    Alcotest.test_case "failed ping closes only its socket" `Quick
      test_failed_ping_closes_only_its_socket;
    Alcotest.test_case "keep-alive above FD_SETSIZE" `Quick
      test_keepalive_above_fd_setsize;
    Alcotest.test_case "failover" `Quick test_failover;
  ]
