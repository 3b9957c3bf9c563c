(* The event-driven server core (DESIGN.md §13): incremental request
   parsing, HTTP/1.1 keep-alive and pipelining, the 408/503/idle
   backpressure limits, corrupt blob reads, and the client's
   persistent-connection error semantics. *)

open Versioning_store
module Faults = Versioning_util.Faults
module Evloop = Versioning_util.Evloop

let temp_dir () =
  let path = Filename.temp_file "dsvc_evsrv" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let mk_repo () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"second" "alpha\nbeta\ngamma") in
  repo

(* ---- percent-coding properties ---- *)

let unreserved c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '.' || c = '_' || c = '~'

(* A conforming encoder: every reserved byte becomes %XX; in query
   mode a space becomes '+' (x-www-form-urlencoded). *)
let percent_encode ?(space_plus = false) s =
  let buf = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      if unreserved c then Buffer.add_char buf c
      else if space_plus && c = ' ' then Buffer.add_char buf '+'
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let arbitrary_bytes = QCheck.string_gen QCheck.Gen.char

let qcheck_path_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"percent path encode/decode roundtrip"
    arbitrary_bytes
    (fun s ->
      Http.percent_decode (percent_encode s) = s
      && Http.percent_encode s = percent_encode s
      && Http.percent_decode (Http.percent_encode s) = s)

let qcheck_query_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"percent query encode/decode roundtrip"
    arbitrary_bytes
    (fun s ->
      Http.percent_decode_query (percent_encode ~space_plus:true s) = s
      && Http.percent_decode_query (Http.percent_encode s) = s)

(* Decoding arbitrary (possibly malformed) input never raises and
   never grows the string — malformed escapes pass through. *)
let qcheck_decode_total =
  QCheck.Test.make ~count:1000 ~name:"percent decode total and bounded"
    arbitrary_bytes
    (fun s ->
      String.length (Http.percent_decode s) <= String.length s
      && String.length (Http.percent_decode_query s) <= String.length s)

(* ---- incremental parser framing ---- *)

let test_parser_pipelined () =
  let p = Http.Parser.create () in
  Http.Parser.feed_string p
    ("GET /a?x=1&msg=hello%20world HTTP/1.1\r\nHost: h\r\n\r\n"
   ^ "POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n"
   ^ "Content-Type: t\r\n\r\nhello"
   ^ "GET /c HTTP/1.1\r\nHost: h\r\n\r\n");
  (match Http.Parser.next p with
  | `Request r ->
      Alcotest.(check string) "first path" "/a" r.Http.path;
      Alcotest.(check (option string)) "first query" (Some "1")
        (List.assoc_opt "x" r.Http.query);
      Alcotest.(check (option string)) "query decoded" (Some "hello world")
        (List.assoc_opt "msg" r.Http.query);
      Alcotest.(check string) "GET body empty" "" r.Http.body
  | _ -> Alcotest.fail "first request expected");
  (match Http.Parser.next p with
  | `Request r ->
      Alcotest.(check string) "second meth" "POST" r.Http.meth;
      Alcotest.(check string) "second body" "hello" r.Http.body;
      Alcotest.(check (option string)) "header name lowered" (Some "t")
        (List.assoc_opt "content-type" r.Http.headers)
  | _ -> Alcotest.fail "second request expected");
  (match Http.Parser.next p with
  | `Request r -> Alcotest.(check string) "third path" "/c" r.Http.path
  | _ -> Alcotest.fail "third request expected");
  (match Http.Parser.next p with
  | `Partial -> ()
  | _ -> Alcotest.fail "drained parser must report partial");
  Alcotest.(check int) "no leftover bytes" 0 (Http.Parser.buffered p)

let test_parser_split_reads () =
  let raw =
    "POST /commit HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\nhello\nworld"
  in
  let p = Http.Parser.create () in
  (* byte at a time: the request must complete exactly once, at the
     last byte, never early and never as a rejection *)
  String.iter
    (fun c ->
      (match Http.Parser.next p with
      | `Partial -> ()
      | `Request _ -> Alcotest.fail "request completed early"
      | `Reject _ -> Alcotest.fail "split request rejected");
      Http.Parser.feed_string p (String.make 1 c))
    (String.sub raw 0 (String.length raw - 1));
  Alcotest.(check bool) "mid-request flag" true (Http.Parser.in_request p);
  Http.Parser.feed_string p
    (String.sub raw (String.length raw - 1) 1);
  match Http.Parser.next p with
  | `Request r ->
      Alcotest.(check string) "body reassembled" "hello\nworld" r.Http.body;
      Alcotest.(check bool) "no longer mid-request" false
        (Http.Parser.in_request p)
  | _ -> Alcotest.fail "request expected after final byte"

let test_parser_limits () =
  let limits = { Http.Parser.max_header_bytes = 64; max_body_bytes = 32 } in
  let p = Http.Parser.create ~limits () in
  Http.Parser.feed_string p ("GET /" ^ String.make 200 'a');
  (match Http.Parser.next p with
  | `Reject r ->
      Alcotest.(check int) "oversize header is 413" 413
        r.Http.Parser.reject_status
  | _ -> Alcotest.fail "oversize header must reject");
  (* rejection is sticky: a later well-formed request cannot
     resurrect the connection *)
  Http.Parser.feed_string p " HTTP/1.1\r\n\r\nGET /ok HTTP/1.1\r\n\r\n";
  (match Http.Parser.next p with
  | `Reject _ -> ()
  | _ -> Alcotest.fail "rejection must be sticky");
  let p = Http.Parser.create ~limits () in
  Http.Parser.feed_string p "POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
  match Http.Parser.next p with
  | `Reject r ->
      Alcotest.(check int) "oversize body is 413" 413
        r.Http.Parser.reject_status
  | _ -> Alcotest.fail "oversize body must reject"

let test_parser_content_length_hygiene () =
  let verdict s =
    let p = Http.Parser.create () in
    Http.Parser.feed_string p s;
    Http.Parser.next p
  in
  let reject_of s =
    match verdict s with
    | `Reject r -> r.Http.Parser.reject_status
    | `Request _ -> Alcotest.failf "accepted %S" s
    | `Partial -> Alcotest.failf "no verdict for %S" s
  in
  (* no input, or a body shorter than its Content-Length, is a request
     still arriving *)
  List.iter
    (fun s ->
      match verdict s with
      | `Partial -> ()
      | _ -> Alcotest.failf "expected partial for %S" s)
    [ ""; "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort" ];
  Alcotest.(check int) "malformed request line" 400
    (reject_of "NOT-A-REQUEST\r\n\r\n");
  Alcotest.(check int) "malformed header" 400
    (reject_of "GET /x HTTP/1.1\r\nbadheader\r\n\r\n");
  Alcotest.(check int) "duplicate CL" 400
    (reject_of
       "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc");
  Alcotest.(check int) "conflicting CL" 400
    (reject_of
       "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd");
  Alcotest.(check int) "list-valued CL" 400
    (reject_of "POST /x HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc");
  Alcotest.(check int) "negative CL" 400
    (reject_of "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n");
  Alcotest.(check int) "garbage CL" 400
    (reject_of "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
  (* Content-Length is 1*DIGIT: OCaml's integer literal syntax is not *)
  List.iter
    (fun v ->
      Alcotest.(check int) ("non-decimal CL " ^ v) 400
        (reject_of
           ("POST /x HTTP/1.1\r\nContent-Length: " ^ v
          ^ "\r\n\r\n0123456789abcdef")))
    [ "0x10"; "+16"; "1_6"; "0o20"; "0b10000"; "-0" ]

(* The response direction shares the request side's framing: two
   pipelined responses come out in order, with their status, headers
   and version; a response must carry a Content-Length. *)
let test_parser_responses () =
  let p = Http.Parser.create () in
  Http.Parser.feed_string p
    ("HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nno\n"
   ^ "HTTP/1.0 200\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok");
  (match Http.Parser.next_response p with
  | `Response r ->
      Alcotest.(check int) "status" 404 r.Http.reply_status;
      Alcotest.(check string) "body" "no\n" r.Http.reply_body;
      Alcotest.(check bool) "1.1 keeps alive" true
        (Http.keep_alive ~version:r.Http.reply_version r.Http.reply_headers)
  | _ -> Alcotest.fail "first response");
  (match Http.Parser.next_response p with
  | `Response r ->
      Alcotest.(check int) "status without reason" 200 r.Http.reply_status;
      Alcotest.(check bool) "close honoured" false
        (Http.keep_alive ~version:r.Http.reply_version r.Http.reply_headers)
  | _ -> Alcotest.fail "second response");
  Alcotest.(check int) "no leftover bytes" 0 (Http.Parser.buffered p);
  List.iter
    (fun s ->
      let p = Http.Parser.create () in
      Http.Parser.feed_string p s;
      match Http.Parser.next_response p with
      | `Reject r ->
          Alcotest.(check int) ("400 for " ^ String.escaped s) 400
            r.Http.Parser.reject_status
      | _ -> Alcotest.failf "accepted %S" s)
    [
      "HTTP/1.1 200 OK\r\n\r\nbody until EOF";
      "HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n";
      "GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    ]

(* ---- socket plumbing ---- *)

(* Serve on an ephemeral port; the on_listen handshake hands the
   actual port back before the first connect. Every test server gets a
   max_requests so it shuts itself down once the expected responses
   have been enqueued (503 rejections don't count — they never reach
   the response path). *)
let start_server ?request_timeout ?idle_timeout ?max_connections ~max_requests
    repo =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let port = ref 0 in
  let th =
    Thread.create
      (fun () ->
        match
          Server.serve repo ~port:0 ?request_timeout ?idle_timeout
            ?max_connections ~max_requests
            ~on_listen:(fun p ->
              Mutex.lock mu;
              port := p;
              Condition.signal cv;
              Mutex.unlock mu)
            ()
        with
        | Ok () -> ()
        | Error e -> Printf.eprintf "test server failed: %s\n%!" e)
      ()
  in
  Mutex.lock mu;
  while !port = 0 do
    Condition.wait cv mu
  done;
  Mutex.unlock mu;
  (!port, th)

let tcp_connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)

let close_sock sock = try Unix.close sock with Unix.Unix_error _ -> ()

let send oc s =
  output_string oc s;
  flush oc

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

(* One Content-Length-framed response off a keep-alive connection. *)
let read_response ic =
  let status_line = strip_cr (input_line ic) in
  let status =
    match String.split_on_char ' ' status_line with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> Alcotest.failf "bad status line %S" status_line)
    | _ -> Alcotest.failf "bad status line %S" status_line
  in
  let content_length = ref 0 in
  let rec headers () =
    let l = strip_cr (input_line ic) in
    if l <> "" then begin
      (match String.index_opt l ':' with
      | Some i ->
          if String.lowercase_ascii (String.sub l 0 i) = "content-length" then
            content_length :=
              int_of_string
                (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | None -> ());
      headers ()
    end
  in
  headers ();
  (status, really_input_string ic !content_length)

let expect_eof name ic =
  Alcotest.(check int) name 0 (input ic (Bytes.create 1) 0 1)

(* ---- keep-alive, pipelining and the limit responses ---- *)

let test_keepalive_then_close () =
  let repo = mk_repo () in
  let port, server = start_server ~max_requests:3 repo in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  send oc "GET /stats HTTP/1.1\r\nHost: h\r\n\r\n";
  let s1, b1 = read_response ic in
  Alcotest.(check int) "first 200" 200 s1;
  Alcotest.(check bool) "stats body" true (String.length b1 > 0);
  (* second request on the same connection: keep-alive *)
  send oc "GET /versions HTTP/1.1\r\nHost: h\r\n\r\n";
  let s2, _ = read_response ic in
  Alcotest.(check int) "second 200 on same connection" 200 s2;
  (* Connection: close is honoured *)
  send oc "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  let s3, _ = read_response ic in
  Alcotest.(check int) "third 200" 200 s3;
  expect_eof "closed after Connection: close" ic;
  Thread.join server

let test_socket_pipelining () =
  let repo = mk_repo () in
  let port, server = start_server ~max_requests:2 repo in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  (* both requests on the wire before either response: responses must
     come back complete and in order *)
  send oc
    ("GET /checkout/1 HTTP/1.1\r\nHost: h\r\n\r\n"
   ^ "GET /checkout/2 HTTP/1.1\r\nHost: h\r\n\r\n");
  let s1, b1 = read_response ic in
  let s2, b2 = read_response ic in
  Alcotest.(check int) "first 200" 200 s1;
  Alcotest.(check string) "first body" "alpha\nbeta" b1;
  Alcotest.(check int) "second 200" 200 s2;
  Alcotest.(check string) "second body in order" "alpha\nbeta\ngamma" b2;
  Thread.join server

(* More pipelined requests than the per-connection queue holds, in one
   write: those left in the parser's buffer are served as the queue
   drains, without the peer sending another byte. *)
let test_pipelining_past_queue () =
  let n = 20 in
  let repo = mk_repo () in
  let port, server = start_server ~max_requests:n repo in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  Unix.setsockopt_float sock Unix.SO_RCVTIMEO 2.0;
  let t0 = Unix.gettimeofday () in
  send oc
    (String.concat ""
       (List.init n (fun _ -> "GET /health HTTP/1.1\r\nHost: h\r\n\r\n")));
  for i = 1 to n do
    match read_response ic with
    | s, _ -> Alcotest.(check int) (Printf.sprintf "response %d" i) 200 s
    | exception Sys_error e -> Alcotest.failf "response %d never came: %s" i e
  done;
  Alcotest.(check bool) "all within 2 s" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Thread.join server

let test_request_timeout_408 () =
  let repo = mk_repo () in
  let port, server =
    start_server ~request_timeout:0.3 ~max_requests:1 repo
  in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  (* a request that never finishes: mid-request silence is a 408 *)
  send oc "GET /stats HTT";
  let s, _ = read_response ic in
  Alcotest.(check int) "408 on stalled request" 408 s;
  expect_eof "closed after 408" ic;
  Thread.join server

let test_idle_close_silent () =
  let repo = mk_repo () in
  let port, server =
    start_server ~idle_timeout:0.25 ~max_requests:2 repo
  in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  send oc "GET /stats HTTP/1.1\r\nHost: h\r\n\r\n";
  let s, _ = read_response ic in
  Alcotest.(check int) "served" 200 s;
  (* between requests an idle connection is closed silently — EOF, no
     408 on the wire *)
  expect_eof "idle connection closed with no bytes" ic;
  let sock2, ic2, oc2 = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock2) @@ fun () ->
  send oc2 "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  let s2, _ = read_response ic2 in
  Alcotest.(check int) "fresh connection still served" 200 s2;
  Thread.join server

let test_max_connections_503 () =
  let repo = mk_repo () in
  let port, server =
    start_server ~max_connections:1 ~max_requests:1 repo
  in
  let sock1, ic1, oc1 = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock1) @@ fun () ->
  Unix.sleepf 0.05;
  let sock2, ic2, _ = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock2) @@ fun () ->
  let s, body = read_response ic2 in
  Alcotest.(check int) "over capacity is 503" 503 s;
  Alcotest.(check bool) "capacity message" true (String.length body > 0);
  expect_eof "overload connection closed" ic2;
  (* the admitted connection is unaffected *)
  send oc1 "GET /stats HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n";
  let s1, _ = read_response ic1 in
  Alcotest.(check int) "admitted connection still served" 200 s1;
  Thread.join server

(* ---- the three limits on one server ---- *)

(* One server meets the three limit behaviors in turn: oversized
   headers (413), an over-capacity connect (503), and a mid-request
   stall (408). *)
let test_limits_in_turn () =
  let repo = mk_repo () in
  (* max_requests:2 — the 413 and the 408 go through the response
     path; the 503 is written straight to the fresh socket and does
     not count. *)
  let port, server =
    start_server ~request_timeout:0.4 ~max_connections:1
      ~max_requests:2 repo
  in
  (* 413: a request line that blows the 16 KiB header cap *)
  let sock1, ic1, oc1 = tcp_connect port in
  let s413 =
    Fun.protect ~finally:(fun () -> close_sock sock1) @@ fun () ->
    send oc1 ("GET /" ^ String.make 20_000 'a');
    let s, _ = read_response ic1 in
    expect_eof "closed after 413" ic1;
    s
  in
  (* let the loop retire the closed connection before filling the
     single connection slot again *)
  Unix.sleepf 0.05;
  let sock2, ic2, oc2 = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock2) @@ fun () ->
  Unix.sleepf 0.05;
  (* 503: sock2 holds the only slot, so a second connect is rejected *)
  let sock3, ic3, _ = tcp_connect port in
  let s503 =
    Fun.protect ~finally:(fun () -> close_sock sock3) @@ fun () ->
    let s, _ = read_response ic3 in
    expect_eof "overload connection closed" ic3;
    s
  in
  (* 408: the admitted connection stalls mid-request *)
  send oc2 "GET /stats HTT";
  let s408, _ = read_response ic2 in
  expect_eof "closed after 408" ic2;
  Thread.join server;
  Alcotest.(check int) "oversized header is 413" 413 s413;
  Alcotest.(check int) "over capacity is 503" 503 s503;
  Alcotest.(check int) "stalled request is 408" 408 s408

(* ---- a corrupt blob is a clean error ---- *)

let test_corrupt_raw_blob () =
  let repo = mk_repo () in
  let port, server = start_server ~max_requests:3 repo in
  (* random bytes do not compress, so the file is raw-framed *)
  let rng = Random.State.make [| 24 |] in
  let content = String.init 100_000 (fun _ -> Char.chr (Random.State.int rng 256)) in
  let digest = Content_hash.hex content in
  let sock, ic, oc = tcp_connect port in
  Fun.protect ~finally:(fun () -> close_sock sock) @@ fun () ->
  send oc
    (Printf.sprintf "POST /blob/%s HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n"
       digest (String.length content)
    ^ content);
  let s, _ = read_response ic in
  Alcotest.(check int) "blob stored" 201 s;
  let path = Object_store.path_of (Repo.object_store repo) digest in
  let framed = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check char) "raw frame" 'R' framed.[0];
  let flipped = Bytes.of_string framed in
  let i = Bytes.length flipped / 2 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 1));
  ok (Versioning_util.Fsutil.write_file path (Bytes.to_string flipped));
  send oc (Printf.sprintf "GET /blob/%s HTTP/1.1\r\nHost: h\r\n\r\n" digest);
  let s, _ = read_response ic in
  Alcotest.(check int) "corrupt blob is a 404" 404 s;
  send oc "GET /health HTTP/1.1\r\nHost: h\r\n\r\n";
  let s, _ = read_response ic in
  Alcotest.(check int) "connection survives" 200 s;
  Thread.join server

(* ---- client connection reuse and the typed stale error ---- *)

let test_client_reuse_and_stale () =
  Faults.reset ();
  Fun.protect ~finally:(fun () -> Faults.reset ()) @@ fun () ->
  let repo = mk_repo () in
  let port, server = start_server ~max_requests:3 repo in
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  (match Client.stats client with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first request: %s" e);
  (* the server drops the kept-alive connection instead of responding:
     a GET is idempotent, so the client reconnects and retries *)
  Faults.arm ~site:"http.write_response" Faults.Drop;
  (match Client.stats client with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "idempotent retry should succeed: %s" e);
  Alcotest.(check bool) "drop consumed by retry test" false
    (Faults.armed ~site:"http.write_response");
  (* the same failure on a POST surfaces as a typed non-transient
     stale-connection error — a retried POST could apply twice *)
  Faults.arm ~site:"http.write_response" Faults.Drop;
  (match
     Client.request_detailed client ~meth:"POST" ~path:"/tag/evtest" ()
   with
  | Ok _ -> Alcotest.fail "dropped POST must not report success"
  | Error e ->
      Alcotest.(check bool) "stale kind" true
        (e.Client.kind = Client.Stale_connection);
      Alcotest.(check bool) "not transient for POST" false e.Client.transient;
      Alcotest.(check string) "stage" "reuse" e.Client.stage);
  (* the client recovers: the next request opens a fresh connection *)
  (match Client.stats client with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "recovery request: %s" e);
  Client.close client;
  Thread.join server

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_path_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_query_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decode_total;
    Alcotest.test_case "parser pipelined requests" `Quick test_parser_pipelined;
    Alcotest.test_case "parser split across reads" `Quick
      test_parser_split_reads;
    Alcotest.test_case "parser size limits" `Quick test_parser_limits;
    Alcotest.test_case "parser content-length hygiene" `Quick
      test_parser_content_length_hygiene;
    Alcotest.test_case "parser frames responses" `Quick test_parser_responses;
    Alcotest.test_case "keep-alive then close" `Quick test_keepalive_then_close;
    Alcotest.test_case "pipelining over a socket" `Quick test_socket_pipelining;
    Alcotest.test_case "pipelining past the request queue" `Quick
      test_pipelining_past_queue;
    Alcotest.test_case "stalled request gets 408" `Quick
      test_request_timeout_408;
    Alcotest.test_case "idle connection closed silently" `Quick
      test_idle_close_silent;
    Alcotest.test_case "connection cap gets 503" `Quick
      test_max_connections_503;
    Alcotest.test_case "one server answers 413/503/408" `Quick
      test_limits_in_turn;
    Alcotest.test_case "corrupt raw blob is a clean 404" `Quick
      test_corrupt_raw_blob;
    Alcotest.test_case "client reuse and stale error" `Quick
      test_client_reuse_and_stale;
  ]
