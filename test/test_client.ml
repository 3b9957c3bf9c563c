(* The typed HTTP client against a live server thread. *)

open Versioning_store
module Faults = Versioning_util.Faults

let temp_dir () =
  let path = Filename.temp_file "dsvc_client" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let with_server k =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"second" "alpha\nbeta\ngamma") in
  let port = 19100 + (Unix.getpid () mod 800) in
  (* generous request budget; the server stops with the thread at join *)
  let server =
    Thread.create
      (fun () -> ignore (Server.serve repo ~port ~max_requests:32 ()))
      ()
  in
  Unix.sleepf 0.2;
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  let finally () =
    (* drain the remaining request budget so the thread exits *)
    let rec drain n =
      if n > 0 then begin
        (match Client.request client ~meth:"GET" ~path:"/stats" () with
        | Ok _ -> drain (n - 1)
        | Error _ -> ())
      end
    in
    drain 32;
    Thread.join server
  in
  Fun.protect ~finally (fun () -> k client repo)

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
  with_server (fun _client _repo ->
      (* a DNS name, not an IP literal, must resolve via getaddrinfo *)
      let port = 19100 + (Unix.getpid () mod 800) in
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
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
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

(* A server that answers exactly one connection with [response]: it
   reads the request head (the client sends no body), writes, closes. *)
let with_fake_server response k =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let serve () =
    let fd, _ = Unix.accept sock in
    let buf = Bytes.create 4096 in
    let rec read_head seen =
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      let seen = seen ^ Bytes.sub_string buf 0 n in
      let l = String.length seen in
      if n > 0 && not (l >= 4 && String.sub seen (l - 4) 4 = "\r\n\r\n") then
        read_head seen
    in
    read_head "";
    ignore (Unix.write_substring fd response 0 (String.length response));
    Unix.close fd
  in
  let server = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close sock)
    (fun () -> k port)

(* A response's Content-Length must be decimal digits no larger than
   the body limit: a negative or huge one used to escape [request] as
   Invalid_argument, a hex one was obeyed. *)
let test_bad_response_content_length () =
  List.iter
    (fun (cl, body) ->
      with_fake_server
        (Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" cl
           body)
      @@ fun port ->
      let client = Client.connect ~retries:1 ~host:"127.0.0.1" ~port () in
      match Client.request_detailed client ~meth:"GET" ~path:"/stats" () with
      | Ok (status, _) ->
          Alcotest.failf "Content-Length %s accepted (HTTP %d)" cl status
      | Error e ->
          Alcotest.(check bool) ("Io error for " ^ cl) true
            (e.Client.kind = Client.Io))
    [
      ("-1", "");
      ("0x10", "0123456789abcdef");
      ("4611686018427387903", "");
      (string_of_int (Http.Parser.default_limits.max_body_bytes + 1), "");
    ]

(* The failover client builds its paths with [Client.path_of]: a ref
   name that needs escaping reaches the route it names. *)
let test_cluster_client_encodes_refs () =
  with_server (fun client _ ->
      ok (Client.tag client "release/1.0" ~at:1 ());
      let cc = ok (Cluster_client.connect [ Client.endpoint client ]) in
      Alcotest.(check string) "checkout release/1.0" "alpha\nbeta"
        (ok (Cluster_client.checkout cc "release/1.0")))

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
    Alcotest.test_case "request counters by status" `Quick
      test_request_counters_by_status;
    Alcotest.test_case "cluster client encodes ref names" `Quick
      test_cluster_client_encodes_refs;
  ]
