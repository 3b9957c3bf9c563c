(* The client-server interface: routing, the socket path and the
   observability endpoints. Request framing is tested in
   test_evserver.ml. *)

open Versioning_store
module Faults = Versioning_util.Faults

let temp_dir () =
  let path = Filename.temp_file "dsvc_srv" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

(* ---- percent decoding ---- *)

let test_percent_decode () =
  (* in a path a plus is a plus; only query strings read '+' as space *)
  Alcotest.(check string) "path plus preserved" "a+b" (Http.percent_decode "a+b");
  Alcotest.(check string) "query plus is space" "a b"
    (Http.percent_decode_query "a+b");
  Alcotest.(check string) "encoded space in path" "a b"
    (Http.percent_decode "a%20b");
  Alcotest.(check string) "hex" "a/b" (Http.percent_decode "a%2Fb");
  Alcotest.(check string) "malformed passthrough" "a%zqb"
    (Http.percent_decode "a%zqb");
  Alcotest.(check string) "trailing percent" "x%" (Http.percent_decode "x%")

(* ---- routing (pure, no sockets) ---- *)

let mk_request ?(meth = "GET") ?(query = []) ?(headers = []) ?(body = "") path =
  { Http.meth; path; query; headers; body; version = "HTTP/1.1" }

let mk_repo () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"second" "alpha\nbeta\ngamma") in
  repo

let test_route_versions () =
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request "/versions") in
  Alcotest.(check int) "200" 200 r.Http.status;
  Alcotest.(check bool) "lists both" true
    (String.split_on_char '\n' r.Http.body
    |> List.exists (fun l -> l = "2 1 second"))

let test_route_checkout () =
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request "/checkout/1") in
  Alcotest.(check string) "content" "alpha\nbeta" r.Http.body;
  let r = Server.handle repo (mk_request "/checkout/99") in
  Alcotest.(check int) "404 for unknown" 404 r.Http.status;
  (* by branch name *)
  let r = Server.handle repo (mk_request "/checkout/main") in
  Alcotest.(check string) "by branch" "alpha\nbeta\ngamma" r.Http.body

let test_route_commit () =
  let repo = mk_repo () in
  let r =
    Server.handle repo
      (mk_request ~meth:"POST"
         ~query:[ ("message", "third") ]
         ~body:"alpha\nbeta\ngamma\ndelta" "/commit")
  in
  Alcotest.(check int) "201" 201 r.Http.status;
  Alcotest.(check string) "returns id" "3" r.Http.body;
  Alcotest.(check string) "retrievable" "alpha\nbeta\ngamma\ndelta"
    (ok (Repo.checkout repo 3));
  (* bad parents *)
  let r =
    Server.handle repo
      (mk_request ~meth:"POST" ~query:[ ("parents", "x") ] ~body:"c" "/commit")
  in
  Alcotest.(check int) "400" 400 r.Http.status

let test_route_stats_optimize_verify () =
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request "/stats") in
  Alcotest.(check bool) "stats body" true
    (String.length r.Http.body > 0 && r.Http.status = 200);
  let r =
    Server.handle repo
      (mk_request ~meth:"POST"
         ~query:[ ("strategy", "min-storage") ]
         "/optimize")
  in
  Alcotest.(check int) "optimize ok" 200 r.Http.status;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST" ~query:[ ("strategy", "bogus") ] "/optimize")
  in
  Alcotest.(check int) "bad strategy" 400 r.Http.status;
  let r = Server.handle repo (mk_request "/verify") in
  Alcotest.(check string) "verify" "consistent\n" r.Http.body

let test_route_branches_tags_diff () =
  let repo = mk_repo () in
  let r =
    Server.handle repo (mk_request ~meth:"POST" ~query:[ ("at", "1") ] "/branch/exp")
  in
  Alcotest.(check int) "branch created" 200 r.Http.status;
  let r = Server.handle repo (mk_request "/branches") in
  Alcotest.(check bool) "branch listed" true
    (String.split_on_char '\n' r.Http.body
    |> List.exists (fun l -> l = "*exp 1"));
  let r = Server.handle repo (mk_request ~meth:"POST" "/tag/v1") in
  Alcotest.(check int) "tagged" 200 r.Http.status;
  let r = Server.handle repo (mk_request "/tags") in
  Alcotest.(check bool) "tag listed" true
    (String.split_on_char '\n' r.Http.body |> List.exists (fun l -> l = "v1 1"));
  let r = Server.handle repo (mk_request "/diff/1/2") in
  Alcotest.(check int) "diff ok" 200 r.Http.status;
  Alcotest.(check bool) "diff is a delta" true
    (String.length r.Http.body > 0);
  let r = Server.handle repo (mk_request "/nope") in
  Alcotest.(check int) "404 route" 404 r.Http.status;
  let r = Server.handle repo (mk_request ~meth:"PUT" "/versions") in
  Alcotest.(check int) "405 for PUT" 405 r.Http.status;
  let r = Server.handle repo (mk_request ~meth:"POST" "/versions") in
  Alcotest.(check int) "405 for POST" 405 r.Http.status;
  Alcotest.(check (option string)) "Allow lists the path's methods" (Some "GET")
    (List.assoc_opt "Allow" r.Http.headers);
  let r = Server.handle repo (mk_request ~meth:"PUT" "/blob/x") in
  Alcotest.(check (option string)) "Allow in table order"
    (Some "GET, POST, DELETE")
    (List.assoc_opt "Allow" r.Http.headers);
  let r = Server.handle repo (mk_request ~meth:"PUT" "/nope") in
  Alcotest.(check int) "unknown path is 404 for any method" 404 r.Http.status

(* ---- the route table ---- *)

let access_name = function
  | Server.Read -> "Read"
  | Server.Write -> "Write"
  | Server.Obs -> "Obs"

let templates_of access =
  List.filter_map
    (fun (_, template, a) -> if a = access then Some template else None)
    Server.routes
  |> List.sort compare

let test_route_table () =
  (* every entry is reached by its own template, with captures that
     carry an encoded '/' *)
  List.iter
    (fun (meth, template, access) ->
      let path =
        String.split_on_char '/' template
        |> List.map (fun seg ->
               if seg <> "" && seg.[0] = ':' then
                 "x%2F" ^ String.sub seg 1 (String.length seg - 1)
               else seg)
        |> String.concat "/"
      in
      match Server.classify (mk_request ~meth path) with
      | Some (label, a) ->
          Alcotest.(check string) (meth ^ " " ^ path ^ " label") template label;
          Alcotest.(check string) (meth ^ " " ^ path ^ " access")
            (access_name access) (access_name a)
      | None -> Alcotest.failf "%s %s matched no route" meth path)
    Server.routes;
  let pairs = List.map (fun (m, t, _) -> (m, t)) Server.routes in
  Alcotest.(check int) "each (method, template) once"
    (List.length pairs)
    (List.length (List.sort_uniq compare pairs));
  Alcotest.(check (list string)) "Write routes"
    [ "/branch/:name"; "/commit"; "/optimize"; "/switch/:name"; "/tag/:name" ]
    (templates_of Server.Write);
  Alcotest.(check (list string)) "Obs routes"
    [ "/alerts"; "/flight"; "/metrics"; "/metrics/cluster"; "/timeseries";
      "/trace/:request_id" ]
    (templates_of Server.Obs);
  (* an adopted meta push must not trigger another push *)
  List.iter
    (fun template ->
      Alcotest.(check bool) (template ^ " is not Write") false
        (List.mem template (templates_of Server.Write)))
    [ "/meta/sync"; "/anti-entropy" ];
  Alcotest.(check bool) "a raw '/' is an extra segment" true
    (Server.classify (mk_request "/checkout/release/1.0") = None)

(* Every route is in server.mli's route list as [METH TEMPLATE] or
   [METH TEMPLATE?query], so the documented list cannot drift from
   the table. *)
let test_routes_documented () =
  let mli =
    match
      List.find_opt Sys.file_exists
        [ "../lib/store/server.mli"; "lib/store/server.mli" ]
    with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "lib/store/server.mli not found"
  in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let header = String.sub mli 0 (Option.get (find_sub mli "*)")) in
  List.iter
    (fun (meth, template, _) ->
      let entry = "[" ^ meth ^ " " ^ template in
      Alcotest.(check bool) (entry ^ "] documented") true
        (find_sub header (entry ^ "]") <> None
        || find_sub header (entry ^ "?") <> None))
    Server.routes

(* Ref names with characters that are reserved in a URL path, sent
   percent-encoded the way Client sends them. *)
let encode_ref name =
  String.to_seq name
  |> Seq.map (function '/' -> "%2F" | '?' -> "%3F" | c -> String.make 1 c)
  |> List.of_seq |> String.concat ""

let test_reserved_ref_names () =
  let repo = mk_repo () in
  List.iter
    (fun name ->
      let path route = route ^ encode_ref name in
      let expect what status r =
        Alcotest.(check int) (what ^ " " ^ name) status r.Http.status
      in
      expect "tag" 200
        (Server.handle repo
           (mk_request ~meth:"POST" ~query:[ ("at", "1") ] (path "/tag/")));
      expect "branch" 200
        (Server.handle repo
           (mk_request ~meth:"POST" ~query:[ ("at", "1") ] (path "/branch/")));
      expect "switch" 200
        (Server.handle repo (mk_request ~meth:"POST" (path "/switch/")));
      let r = Server.handle repo (mk_request (path "/checkout/")) in
      expect "checkout" 200 r;
      Alcotest.(check string) ("checkout bytes " ^ name) "alpha\nbeta"
        r.Http.body;
      expect "diff" 200
        (Server.handle repo (mk_request (path "/diff/" ^ "/2"))))
    [ "release/1.0"; "a?b" ];
  let r = Server.handle repo (mk_request "/tags") in
  let tags = String.split_on_char '\n' r.Http.body in
  Alcotest.(check bool) "tags list a?b" true (List.mem "a?b 1" tags);
  Alcotest.(check bool) "tags list release/1.0" true
    (List.mem "release/1.0 1" tags);
  Alcotest.(check bool) "no truncated tag" false (List.mem "a 1" tags);
  Alcotest.(check string) "current branch" "a?b" (Repo.current_branch repo)

let test_encoded_route_label () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  let repo = mk_repo () in
  ignore (ok (Repo.tag repo "release/1.0" ~at:1 ()));
  let r = Server.handle repo (mk_request "/checkout/release%2F1.0") in
  Alcotest.(check int) "checkout ok" 200 r.Http.status;
  Alcotest.(check bool) "counted under the template" true
    (List.mem
       {|dsvc_server_requests_total{route="/checkout/:name",status="200"} 1|}
       (String.split_on_char '\n' (Metrics.to_prometheus ())))

let test_error_status_mapping () =
  let repo = mk_repo () in
  (* naming something that doesn't exist is 404, not 409 *)
  let r = Server.handle repo (mk_request ~meth:"POST" "/switch/nosuch") in
  Alcotest.(check int) "unknown branch is 404" 404 r.Http.status;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST" ~query:[ ("at", "99") ] "/tag/vx")
  in
  Alcotest.(check int) "unknown version is 404" 404 r.Http.status;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST" ~query:[ ("parents", "99") ] ~body:"c" "/commit")
  in
  Alcotest.(check int) "unknown parent is 404" 404 r.Http.status;
  (* real conflicts stay 409 *)
  let _ = Server.handle repo (mk_request ~meth:"POST" "/tag/v1") in
  let r = Server.handle repo (mk_request ~meth:"POST" "/tag/v1") in
  Alcotest.(check int) "duplicate tag is 409" 409 r.Http.status;
  (* a name that would corrupt the metadata is refused, not stored *)
  let r = Server.handle repo (mk_request ~meth:"POST" "/tag/bad name") in
  Alcotest.(check int) "invalid name is 409" 409 r.Http.status

let test_raising_handler_yields_500 () =
  Faults.reset ();
  let repo = mk_repo () in
  (* an injected crash makes the optimize handler raise mid-request *)
  Faults.arm ~site:"optimize.after_objects" Faults.Crash;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST"
         ~query:[ ("strategy", "min-storage") ]
         "/optimize")
  in
  Faults.reset ();
  Alcotest.(check int) "500" 500 r.Http.status;
  Alcotest.(check bool) "error body" true
    (String.length r.Http.body > 0)

(* ---- GET /metrics ---- *)

let test_route_metrics () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  let repo = mk_repo () in
  (* drive every tier: server routing, checkout cache, store get/put,
     delta encode and both the MCA and SPT solvers *)
  let r = Server.handle repo (mk_request "/checkout/1") in
  Alcotest.(check int) "checkout ok" 200 r.Http.status;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST" ~query:[ ("strategy", "min-storage") ] "/optimize")
  in
  Alcotest.(check int) "optimize mca ok" 200 r.Http.status;
  let r =
    Server.handle repo
      (mk_request ~meth:"POST"
         ~query:[ ("strategy", "min-recreation") ]
         "/optimize")
  in
  Alcotest.(check int) "optimize spt ok" 200 r.Http.status;
  let r = Server.handle repo (mk_request "/metrics") in
  Alcotest.(check int) "metrics 200" 200 r.Http.status;
  Alcotest.(check bool) "prometheus text body" true
    (contains r.Http.body "# TYPE dsvc_server_requests_total counter");
  Alcotest.(check bool) "request series present" true
    (contains r.Http.body "dsvc_server_requests_total{route=\"/checkout/:name\",status=\"200\"} 1");
  let families = Metrics.family_names () in
  List.iter
    (fun tier ->
      Alcotest.(check bool) (tier ^ " tier instrumented") true
        (List.exists
           (fun f ->
             String.length f >= String.length tier
             && String.sub f 0 (String.length tier) = tier)
           families))
    [ "dsvc_solver_"; "dsvc_delta_"; "dsvc_store_"; "dsvc_server_" ];
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 distinct families (got %d)"
       (List.length families))
    true
    (List.length families >= 20);
  let r =
    Server.handle repo (mk_request ~query:[ ("format", "json") ] "/metrics")
  in
  Alcotest.(check int) "json 200" 200 r.Http.status;
  Alcotest.(check bool) "json envelope" true
    (contains r.Http.body {|"metrics":[|});
  (* provenance meta block (same stamps as /health and the bench json) *)
  Alcotest.(check bool) "meta block leads" true
    (contains r.Http.body {|{"meta":{"git_rev":"|});
  Alcotest.(check bool) "meta has uptime" true
    (contains r.Http.body {|"uptime_s":|});
  Metrics.reset ()

(* ---- GET /metrics/cluster, single-node ---- *)

let test_route_metrics_cluster_single () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request "/checkout/1") in
  Alcotest.(check int) "checkout ok" 200 r.Http.status;
  let r = Server.handle repo (mk_request "/metrics/cluster") in
  Alcotest.(check int) "cluster scrape 200" 200 r.Http.status;
  (* without --peers the node scrapes itself under the "self" label *)
  Alcotest.(check bool) "self re-labelled" true
    (contains r.Http.body {|peer="self"|});
  Alcotest.(check bool) "self marked up" true
    (contains r.Http.body {|dsvc_cluster_scrape_up{peer="self"} 1|});
  (* samples with pre-existing labels get peer injected first *)
  Alcotest.(check bool) "peer label composes with route labels" true
    (contains r.Http.body {|dsvc_server_requests_total{peer="self",route=|});
  (* the repo-lock-holding request refreshed the telemetry gauges, so
     the lock-free scrape can serve the drift score *)
  Alcotest.(check bool) "drift gauge present" true
    (contains r.Http.body "dsvc_store_drift_score{");
  (* HELP/TYPE comments are dropped; only the scrape's own annotation
     comment survives *)
  Alcotest.(check bool) "family comments dropped" false
    (contains r.Http.body "# TYPE");
  Metrics.reset ()

(* ---- GET /metrics/cluster with unreachable peers and hostile
   peer names (DESIGN.md §16) ---- *)

let test_cluster_scrape_dead_peers_and_escaping () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  let repo = mk_repo () in
  ignore (Server.handle repo (mk_request "/checkout/1"));
  (* a ring-member name is host:port in production, but nothing
     enforces that — the exposition must survive the worst case *)
  let self_name = {|se"lf\node|} in
  let dead name =
    (* nothing listens on the discard port: every scrape attempt fails *)
    (name, Client.connect ~timeout:0.5 ~retries:1 ~host:"127.0.0.1" ~port:9 ())
  in
  let evil_peer = "evil\"peer\\x\ny" in
  let cluster =
    {
      Server.local_store = Object_store.memory ();
      replicated =
        Replicated.create ~replicas:1 ~self:self_name
          ~self_backend:(Backend.memory ()) ~peers:[] ();
      peer_clients = [ dead "peer-b"; dead evil_peer ];
    }
  in
  let r = Server.handle ~cluster repo (mk_request "/metrics/cluster") in
  Alcotest.(check int) "partial scrape still 200" 200 r.Http.status;
  let body = r.Http.body in
  (* Prometheus escaping, not OCaml %S: backslash and quote get a
     backslash prefix, a newline becomes backslash-n *)
  Alcotest.(check bool) "self label escaped per the exposition spec" true
    (contains body {|dsvc_cluster_scrape_up{peer="se\"lf\\node"} 1|});
  Alcotest.(check bool) "relabelled samples carry the escaped name" true
    (contains body {|dsvc_server_requests_total{peer="se\"lf\\node",route=|});
  Alcotest.(check bool) "no raw %S decimal escapes anywhere" false
    (contains body {|se\"lf\\node\255|} || contains body "peer=\"se\\\"lf\\\\node\\n");
  (* one scrape_up 0 line per dead peer, names escaped *)
  Alcotest.(check bool) "first dead peer reported down" true
    (contains body {|dsvc_cluster_scrape_up{peer="peer-b"} 0|});
  Alcotest.(check bool) "hostile dead peer reported down, escaped" true
    (contains body
       ("dsvc_cluster_scrape_up{peer=\"evil\\\"peer\\\\x\\ny\"} 0"));
  let scrape_up_lines =
    String.split_on_char '\n' body
    |> List.filter (fun l ->
           String.length l > 21 && String.sub l 0 21 = "dsvc_cluster_scrape_u")
  in
  Alcotest.(check int) "exactly one scrape_up line per node" 3
    (List.length scrape_up_lines);
  (* the body stays machine-parseable around the failures: every
     non-comment line is `name[{labels}] value` with a float value *)
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "unparseable sample line: %S" line
           | Some i -> (
               let v =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               match float_of_string_opt v with
               | Some _ -> ()
               | None -> Alcotest.failf "non-numeric sample value: %S" line));
  Metrics.reset ()

(* ---- the sampler's peer probe ---- *)

(* A peer that answers every request on its one connection with a
   /health body naming [epoch] until the client hangs up. Returns [k]'s
   result and the number of GET /health requests the peer saw. *)
let with_health_peer ~epoch k =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 1;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let body = Printf.sprintf "status ok\nring_epoch %s\n" epoch in
  let response =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let health = Atomic.make 0 in
  let serve () =
    let fd, _ = Unix.accept sock in
    let ic = Unix.in_channel_of_descr fd in
    let rec skip_head () =
      if String.trim (input_line ic) <> "" then skip_head ()
    in
    (try
       while true do
         let line = input_line ic in
         if String.starts_with ~prefix:"GET /health " line then
           Atomic.incr health;
         skip_head ();
         ignore (Unix.write_substring fd response 0 (String.length response))
       done
     with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let server = Thread.create serve () in
  let finally () =
    (* a probe that never connected leaves [serve] in accept: an empty
       connection releases it (and only queues when it did connect) *)
    let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.connect wake (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with Unix.Unix_error _ -> ());
    Unix.close wake;
    Thread.join server;
    Unix.close sock
  in
  let result = Fun.protect ~finally (fun () -> k port) in
  (result, Atomic.get health)

(* Each sampler tick probes each live peer with one GET /health: the
   single-attempt liveness check and the ring-epoch read share it. *)
let test_probe_one_health_request_per_peer () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Obs.with_enabled true @@ fun () ->
  Fun.protect ~finally:(fun () -> Metrics.reset ()) @@ fun () ->
  Metrics.reset ();
  let replicated =
    Replicated.create ~replicas:1 ~self:"self" ~self_backend:(Backend.memory ())
      ~peers:[] ()
  in
  let probe epoch =
    with_health_peer ~epoch @@ fun port ->
    let live =
      Client.connect ~timeout:2.0 ~retries:1 ~host:"127.0.0.1" ~port ()
    in
    (* nothing listens on the discard port *)
    let dead =
      Client.connect ~timeout:0.5 ~retries:1 ~host:"127.0.0.1" ~port:9 ()
    in
    Fun.protect
      ~finally:(fun () ->
        Client.close live;
        Client.close dead)
      (fun () ->
        Server.probe_peers
          {
            Server.local_store = Object_store.memory ();
            replicated;
            peer_clients = [ ("live", live); ("dead", dead) ];
          })
  in
  let up, requests = probe (Replicated.ring_epoch replicated) in
  Alcotest.(check int) "one /health request to the live peer" 1 requests;
  Alcotest.(check (float 1e-9)) "self and the live peer are up" (2.0 /. 3.0) up;
  Alcotest.(check bool) "same epoch: no mismatch" true
    (contains (Metrics.to_prometheus ())
       {|dsvc_cluster_ring_epoch_mismatch{peer="live"} 0|});
  let _, requests = probe "some other epoch" in
  Alcotest.(check int) "one /health request on a mismatch too" 1 requests;
  let text = Metrics.to_prometheus () in
  Alcotest.(check bool) "other epoch: mismatch" true
    (contains text {|dsvc_cluster_ring_epoch_mismatch{peer="live"} 1|});
  Alcotest.(check bool) "a dead peer sets no epoch gauge" false
    (contains text {|dsvc_cluster_ring_epoch_mismatch{peer="dead"}|})

(* ---- GET /timeseries and GET /alerts ---- *)

let test_route_timeseries_and_alerts () =
  let module Timeseries = Versioning_obs.Timeseries in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let repo = mk_repo () in
  (* an un-sampled server answers with an empty listing, not an error *)
  let r = Server.handle repo (mk_request "/timeseries") in
  Alcotest.(check int) "empty listing 200" 200 r.Http.status;
  Alcotest.(check string) "empty body" "" r.Http.body;
  let ts = Repo.timeseries repo in
  let now = Unix.gettimeofday () in
  Timeseries.record ts ~now ~metric:"sli:scrape_up" 1.0;
  Timeseries.record ts ~now ~metric:"other series" 3.5;
  let r = Server.handle repo (mk_request "/timeseries") in
  Alcotest.(check string) "series listing, sorted" "other series\nsli:scrape_up\n"
    r.Http.body;
  let r =
    Server.handle repo
      (mk_request ~query:[ ("metric", "sli:scrape_up"); ("since", "60") ]
         "/timeseries")
  in
  Alcotest.(check int) "series query 200" 200 r.Http.status;
  (match String.split_on_char '\n' (String.trim r.Http.body) with
  | [ line ] -> (
      match String.split_on_char ' ' line with
      | [ _time; count; avg; _min; _max; _last ] ->
          Alcotest.(check (option int)) "count column" (Some 1)
            (int_of_string_opt count);
          Alcotest.(check (option (float 1e-9))) "avg column" (Some 1.0)
            (float_of_string_opt avg)
      | cols -> Alcotest.failf "expected 6 columns, got %d" (List.length cols))
  | ls -> Alcotest.failf "expected one bucket line, got %d" (List.length ls));
  let r =
    Server.handle repo
      (mk_request ~query:[ ("metric", "no such series") ] "/timeseries")
  in
  Alcotest.(check string) "unknown series is empty, not 404" "" r.Http.body;
  (* the alert engine answers even when the sampler never ran: every
     stock rule present, inactive *)
  let r = Server.handle repo (mk_request "/alerts") in
  Alcotest.(check int) "alerts 200" 200 r.Http.status;
  Alcotest.(check bool) "stock rules listed" true
    (contains r.Http.body "cluster_scrape_up");
  Alcotest.(check bool) "quiet engine reports inactive" true
    (contains r.Http.body "inactive")

(* ---- the DSVC_OBS=0 kill switch and the sampler timer ---- *)

let with_env name v f =
  let old = Sys.getenv_opt name in
  Unix.putenv name v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv name (match old with Some s -> s | None -> ""))
    f

(* Boot serve on the loop thread, give its reactor a few hundred
   milliseconds of idle time, then satisfy max_requests so it exits.
   A local socket helper because http_get is defined further down. *)
let serve_briefly repo ~port =
  let server =
    Thread.create
      (fun () -> ignore (Server.serve repo ~port ~max_requests:1 ()))
      ()
  in
  Unix.sleepf 0.5;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let oc = Unix.out_channel_of_descr sock in
      output_string oc "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
      flush oc;
      let ic = Unix.in_channel_of_descr sock in
      try
        while true do
          ignore (input_char ic)
        done
      with End_of_file -> ());
  Thread.join server

let test_obs_off_never_arms_the_sampler () =
  let module Obs = Versioning_obs.Obs in
  let module Timeseries = Versioning_obs.Timeseries in
  let was_enabled = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  (* a step far below the serve window: if the timer were armed the
     ring could not stay empty *)
  with_env "DSVC_TS_STEP" "0.05" @@ fun () ->
  with_env "DSVC_OBS" "0" @@ fun () ->
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
  serve_briefly repo ~port:(18501 + (Unix.getpid () mod 700));
  Alcotest.(check bool) "ring stayed empty" true
    (Timeseries.is_empty (Repo.timeseries repo));
  Repo.close repo;
  Alcotest.(check bool) "no timeseries ledger written" false
    (Sys.file_exists (Filename.concat (Filename.concat dir ".dsvc") "timeseries"))

let test_sampler_ticks_under_serve () =
  let module Obs = Versioning_obs.Obs in
  let module Timeseries = Versioning_obs.Timeseries in
  let was_enabled = Obs.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was_enabled;
      Versioning_obs.Metrics.reset ())
    (fun () ->
      with_env "DSVC_TS_STEP" "0.05" @@ fun () ->
      with_env "DSVC_OBS" "1" @@ fun () ->
      let dir = temp_dir () in
      let repo = ok (Repo.init ~path:dir) in
      let _ = ok (Repo.commit repo ~message:"first" "alpha\nbeta") in
      serve_briefly repo ~port:(19201 + (Unix.getpid () mod 700));
      (* several 50 ms steps elapsed inside serve_briefly: the reactor
         timer must have sampled the registry into the ring *)
      Alcotest.(check bool) "sampler recorded series" false
        (Timeseries.is_empty (Repo.timeseries repo));
      (* the ring survives close/open through .dsvc/timeseries *)
      let names = Timeseries.metrics (Repo.timeseries repo) in
      Repo.close repo;
      Alcotest.(check bool) "ledger written on close" true
        (Sys.file_exists
           (Filename.concat (Filename.concat dir ".dsvc") "timeseries"));
      let repo2 = ok (Repo.open_repo ~path:dir) in
      Alcotest.(check (list string)) "series survive reopen" names
        (Timeseries.metrics (Repo.timeseries repo2));
      Repo.close repo2)

let test_timeseries_save_fault () =
  let module Obs = Versioning_obs.Obs in
  let module Timeseries = Versioning_obs.Timeseries in
  Faults.reset ();
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let _ = ok (Repo.commit repo ~message:"a" "alpha\n") in
  Obs.with_enabled true (fun () ->
      Timeseries.record (Repo.timeseries repo) ~now:100.0 ~metric:"m" 1.0;
      Faults.arm ~site:"timeseries.save" (Faults.Fail "injected: disk full");
      (match Repo.flush_ledgers repo with
      | Ok () -> Alcotest.fail "flush must surface the injected failure"
      | Error _ -> ());
      Faults.reset ();
      ok (Repo.flush_ledgers repo));
  Repo.close repo;
  (* the failed flush corrupted nothing: the repo reopens, verifies,
     and the ring from the successful flush is intact *)
  let repo2 = ok (Repo.open_repo ~path:dir) in
  (match Repo.verify repo2 with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "repo must still verify: %s" (String.concat "; " problems));
  Alcotest.(check (list string)) "ring recovered" [ "m" ]
    (Timeseries.metrics (Repo.timeseries repo2));
  Repo.close repo2

(* ---- end-to-end over a real socket ---- *)

let http_get host port path =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let oc = Unix.out_channel_of_descr sock in
      let ic = Unix.in_channel_of_descr sock in
      output_string oc
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
           path);
      flush oc;
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let test_socket_end_to_end () =
  let repo = mk_repo () in
  let port = 18077 + (Unix.getpid () mod 1000) in
  let server = Thread.create (fun () ->
      ignore (Server.serve repo ~port ~max_requests:2 ()))
      ()
  in
  Unix.sleepf 0.2;
  let raw = http_get "127.0.0.1" port "/checkout/1" in
  Alcotest.(check bool) "status line" true
    (String.length raw > 12 && String.sub raw 0 12 = "HTTP/1.1 200");
  Alcotest.(check bool) "payload present" true
    (let n = String.length raw in
     n >= 10 && String.sub raw (n - 10) 10 = "alpha\nbeta");
  let raw = http_get "127.0.0.1" port "/stats" in
  Alcotest.(check bool) "second request ok" true
    (String.length raw > 12 && String.sub raw 0 12 = "HTTP/1.1 200");
  Thread.join server

let test_graceful_shutdown () =
  (* safety net: if the server isn't in its accept loop yet, a stray
     SIGTERM must not kill the test runner *)
  let old = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm old)
    (fun () ->
      (* earlier tests may have left sampled events in the flight ring;
         drop them so the signal-initiated shutdown below doesn't dump
         a post-mortem file into the test runner's cwd *)
      Versioning_obs.Flight.reset ();
      let repo = mk_repo () in
      let port = 17512 + (Unix.getpid () mod 900) in
      let finished = ref false in
      let _server =
        Thread.create
          (fun () ->
            ignore (Server.serve repo ~port ());
            finished := true)
          ()
      in
      Unix.sleepf 0.4;
      let attempts = ref 0 in
      while (not !finished) && !attempts < 20 do
        incr attempts;
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        Unix.sleepf 0.3
      done;
      Alcotest.(check bool) "server stopped gracefully" true !finished)

(* ---- request tracing across the client/server boundary ---- *)

module Obs = Versioning_obs.Obs
module Ctx = Versioning_obs.Context
module Trace = Versioning_obs.Trace
module Flight = Versioning_obs.Flight
module Logctx = Versioning_obs.Logctx

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The ISSUE's acceptance test: a traced client→server optimize yields
   one trace — client and server spans share the caller's trace id,
   the server span nests under the client's, and the access log line
   carries the client-sent request id. In-process threads share the
   span ring, so the "client" and "server" sides are both visible. *)
let test_trace_propagation_end_to_end () =
  Obs.with_enabled true @@ fun () ->
  let buf = Buffer.create 1024 in
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter Logs.nop_reporter;
      Logs.set_level (Some Logs.Warning);
      Flight.reset ())
  @@ fun () ->
  Trace.reset ();
  Flight.reset ();
  Logs.set_reporter (Logctx.reporter ~out:(Buffer.add_string buf) ());
  Logs.set_level (Some Logs.Info);
  let repo = mk_repo () in
  let port = 18200 + (Unix.getpid () mod 900) in
  let server =
    Thread.create
      (fun () -> ignore (Server.serve repo ~port ~max_requests:1 ()))
      ()
  in
  Unix.sleepf 0.2;
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  let ctx = Ctx.make ~sampled:false () in
  let stats =
    Ctx.with_context ctx (fun () -> Client.optimize client "min-storage")
  in
  Thread.join server;
  (match stats with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "optimize failed: %s" e);
  let spans = Trace.spans () in
  let find name = List.find_opt (fun s -> s.Trace.name = name) spans in
  let client_span =
    match find "client.request" with
    | Some s -> s
    | None -> Alcotest.fail "client.request span missing"
  in
  let server_span =
    match find "server.request" with
    | Some s -> s
    | None -> Alcotest.fail "server.request span missing"
  in
  Alcotest.(check bool) "optimize span present" true (find "optimize" <> None);
  Alcotest.(check (option string)) "client span carries the caller's trace id"
    (Some ctx.Ctx.trace_id) client_span.Trace.trace;
  Alcotest.(check (option string)) "server span joins the same trace"
    (Some ctx.Ctx.trace_id) server_span.Trace.trace;
  Alcotest.(check (option int)) "server span nests under the client span"
    (Some client_span.Trace.id) server_span.Trace.parent;
  let json = Trace.to_chrome_json () in
  Alcotest.(check bool) "chrome export carries the trace id" true
    (contains json ctx.Ctx.trace_id);
  let log = Buffer.contents buf in
  Alcotest.(check bool) "access log records the request" true
    (contains log "POST /optimize -> 200");
  Alcotest.(check bool) "access log carries the client request id" true
    (contains log ctx.Ctx.request_id)

let test_trace_endpoint_and_request_id_echo () =
  Obs.with_enabled true @@ fun () ->
  Trace.reset ();
  let repo = mk_repo () in
  let ctx = Ctx.make ~sampled:false () in
  let headers =
    [
      ("traceparent", Ctx.to_traceparent ~span:7 ctx);
      ("x-dsvc-request-id", ctx.Ctx.request_id);
    ]
  in
  let r = Server.handle repo (mk_request ~headers "/checkout/1") in
  Alcotest.(check int) "200" 200 r.Http.status;
  Alcotest.(check (option string)) "request id echoed in a response header"
    (Some ctx.Ctx.request_id)
    (List.assoc_opt "X-Dsvc-Request-Id" r.Http.headers);
  let server_span =
    List.find (fun s -> s.Trace.name = "server.request") (Trace.spans ())
  in
  Alcotest.(check (option string)) "span joined the header's trace"
    (Some ctx.Ctx.trace_id) server_span.Trace.trace;
  Alcotest.(check (option int)) "span parented on the header's span id"
    (Some 7) server_span.Trace.parent;
  let r =
    Server.handle repo (mk_request ("/trace/" ^ ctx.Ctx.request_id))
  in
  Alcotest.(check int) "/trace/:id answers" 200 r.Http.status;
  Alcotest.(check bool) "summary names the request" true
    (contains r.Http.body ctx.Ctx.request_id);
  Alcotest.(check bool) "summary names the route" true
    (contains r.Http.body "/checkout/:name");
  Alcotest.(check bool) "summary includes the server span" true
    (contains r.Http.body "server.request");
  (* a second request reusing the id: the newest one answers *)
  let r = Server.handle repo (mk_request ~headers "/stats") in
  Alcotest.(check int) "reused id served" 200 r.Http.status;
  let r =
    Server.handle repo (mk_request ("/trace/" ^ ctx.Ctx.request_id))
  in
  Alcotest.(check bool) "newest request with the id answers" true
    (contains r.Http.body "\"route\":\"/stats\"");
  let r = Server.handle repo (mk_request "/trace/nosuch") in
  Alcotest.(check int) "unknown id is 404" 404 r.Http.status

(* With the gate off and the context unsampled, tracing must change
   nothing: plans stay byte-identical across identical repositories
   and neither the span ring nor the flight recorder sees an event. *)
let test_off_mode_is_silent () =
  Obs.with_enabled false @@ fun () ->
  Fun.protect ~finally:(fun () -> Flight.reset ()) @@ fun () ->
  Trace.reset ();
  Flight.reset ();
  let run () =
    let repo = mk_repo () in
    let ctx = Ctx.make ~sampled:false () in
    let headers = [ ("traceparent", Ctx.to_traceparent ctx) ] in
    let r =
      Server.handle repo
        (mk_request ~headers ~meth:"POST"
           ~query:[ ("strategy", "min-storage") ]
           "/optimize")
    in
    Alcotest.(check int) "optimize ok" 200 r.Http.status;
    r.Http.body
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "plans byte-identical with tracing off" a b;
  Alcotest.(check int) "no spans recorded" 0 (Trace.span_count ());
  Alcotest.(check int) "no flight events" 0 (Flight.event_count ())

(* ---- /health and the peer blob routes (pure routing, no sockets) ---- *)

let kv_of body =
  String.split_on_char '\n' (String.trim body)
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             Some
               (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> None)

let test_route_health () =
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request "/health") in
  Alcotest.(check int) "200" 200 r.Http.status;
  let kv = kv_of r.Http.body in
  Alcotest.(check (option string)) "status" (Some "ok")
    (List.assoc_opt "status" kv);
  Alcotest.(check (option string)) "journal clean" (Some "clean")
    (List.assoc_opt "journal" kv);
  Alcotest.(check bool) "generation present" true
    (List.mem_assoc "generation" kv);
  (* build/process provenance (same stamps as metrics meta and bench) *)
  Alcotest.(check bool) "build rev present" true (List.mem_assoc "build" kv);
  Alcotest.(check (option string)) "compiler version" (Some Sys.ocaml_version)
    (List.assoc_opt "ocaml" kv);
  Alcotest.(check bool) "uptime present" true (List.mem_assoc "uptime_s" kv);
  (* single-node: no cluster fields *)
  Alcotest.(check bool) "no ring epoch without --peers" false
    (List.mem_assoc "ring_epoch" kv)

let test_blob_routes_roundtrip () =
  let repo = mk_repo () in
  let content = "blob payload\nwith lines" in
  let digest = Content_hash.hex content in
  (* store *)
  let r =
    Server.handle repo (mk_request ~meth:"POST" ~body:content ("/blob/" ^ digest))
  in
  Alcotest.(check int) "stored" 201 r.Http.status;
  (* digest mismatch is refused, not laundered *)
  let r =
    Server.handle repo (mk_request ~meth:"POST" ~body:"other" ("/blob/" ^ digest))
  in
  Alcotest.(check int) "mismatch rejected" 409 r.Http.status;
  (* malformed digests never reach the store *)
  let r = Server.handle repo (mk_request "/blob/nothex") in
  Alcotest.(check int) "bad digest is a 400" 400 r.Http.status;
  (* fetch + stat + list *)
  let r = Server.handle repo (mk_request ("/blob/" ^ digest)) in
  Alcotest.(check int) "found" 200 r.Http.status;
  Alcotest.(check string) "bytes intact" content r.Http.body;
  let r = Server.handle repo (mk_request ("/blob/" ^ digest ^ "/stat")) in
  Alcotest.(check int) "stat 200" 200 r.Http.status;
  let r = Server.handle repo (mk_request "/blobs") in
  Alcotest.(check bool) "listed" true
    (String.split_on_char '\n' r.Http.body
    |> List.exists (fun l ->
           match String.split_on_char ' ' l with
           | [ d; _size ] -> d = digest
           | _ -> false));
  (* delete *)
  let r = Server.handle repo (mk_request ~meth:"DELETE" ("/blob/" ^ digest)) in
  Alcotest.(check int) "deleted" 200 r.Http.status;
  let r = Server.handle repo (mk_request ("/blob/" ^ digest)) in
  Alcotest.(check int) "gone" 404 r.Http.status

let test_meta_sync_generation_gate () =
  let repo = mk_repo () in
  let exported = ok (Repo.export_meta repo) in
  (* replaying a node's own metadata is stale, not an error *)
  let r =
    Server.handle repo (mk_request ~meth:"POST" ~body:exported "/meta/sync")
  in
  Alcotest.(check int) "accepted" 200 r.Http.status;
  Alcotest.(check string) "own generation is stale" "stale\n" r.Http.body;
  (* garbage is refused *)
  let r =
    Server.handle repo (mk_request ~meth:"POST" ~body:"not metadata" "/meta/sync")
  in
  Alcotest.(check int) "garbage rejected" 409 r.Http.status;
  (* GET /meta serves the exact bytes *)
  let r = Server.handle repo (mk_request "/meta") in
  Alcotest.(check int) "meta served" 200 r.Http.status;
  Alcotest.(check string) "byte-exact" exported r.Http.body

let test_anti_entropy_requires_cluster () =
  let repo = mk_repo () in
  let r = Server.handle repo (mk_request ~meth:"POST" "/anti-entropy") in
  Alcotest.(check int) "409 without --peers" 409 r.Http.status

(* The CLI's --strategy flag and POST /optimize share one parser; its
   printer must name each strategy the way the parser reads it back. *)
let test_strategy_roundtrip () =
  List.iter
    (fun s ->
      let printed = Server.strategy_to_string s in
      match Server.parse_strategy printed with
      | Ok s' when s' = s -> ()
      | Ok _ -> Alcotest.failf "%s parses to another strategy" printed
      | Error e -> Alcotest.failf "%s does not parse: %s" printed e)
    Repo.
      [
        Min_storage;
        Min_recreation;
        Budgeted_sum 1.5;
        Bounded_max 2.0;
        Git_window (10, 50);
        Svn_skip;
      ]

let suite =
  [
    Alcotest.test_case "route /health" `Quick test_route_health;
    Alcotest.test_case "blob routes roundtrip" `Quick test_blob_routes_roundtrip;
    Alcotest.test_case "meta sync generation gate" `Quick
      test_meta_sync_generation_gate;
    Alcotest.test_case "anti-entropy needs cluster" `Quick
      test_anti_entropy_requires_cluster;
    Alcotest.test_case "percent decode" `Quick test_percent_decode;
    Alcotest.test_case "route /versions" `Quick test_route_versions;
    Alcotest.test_case "route /checkout" `Quick test_route_checkout;
    Alcotest.test_case "route /commit" `Quick test_route_commit;
    Alcotest.test_case "route stats/optimize/verify" `Quick
      test_route_stats_optimize_verify;
    Alcotest.test_case "route branches/tags/diff" `Quick
      test_route_branches_tags_diff;
    Alcotest.test_case "route table" `Quick test_route_table;
    Alcotest.test_case "route list documented" `Quick test_routes_documented;
    Alcotest.test_case "strategy print/parse roundtrip" `Quick
      test_strategy_roundtrip;
    Alcotest.test_case "reserved characters in ref names" `Quick
      test_reserved_ref_names;
    Alcotest.test_case "encoded path keeps its route label" `Quick
      test_encoded_route_label;
    Alcotest.test_case "error status mapping" `Quick test_error_status_mapping;
    Alcotest.test_case "raising handler yields 500" `Quick
      test_raising_handler_yields_500;
    Alcotest.test_case "route /metrics" `Quick test_route_metrics;
    Alcotest.test_case "route /metrics/cluster single-node" `Quick
      test_route_metrics_cluster_single;
    Alcotest.test_case "cluster scrape: dead peers and label escaping" `Quick
      test_cluster_scrape_dead_peers_and_escaping;
    Alcotest.test_case "probe sends one /health per peer" `Quick
      test_probe_one_health_request_per_peer;
    Alcotest.test_case "routes /timeseries and /alerts" `Quick
      test_route_timeseries_and_alerts;
    Alcotest.test_case "DSVC_OBS=0 never arms the sampler" `Quick
      test_obs_off_never_arms_the_sampler;
    Alcotest.test_case "sampler ticks under serve and persists" `Quick
      test_sampler_ticks_under_serve;
    Alcotest.test_case "injected fault at timeseries.save" `Quick
      test_timeseries_save_fault;
    Alcotest.test_case "socket end-to-end" `Quick test_socket_end_to_end;
    Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
    Alcotest.test_case "trace propagation end-to-end" `Quick
      test_trace_propagation_end_to_end;
    Alcotest.test_case "trace endpoint and request id echo" `Quick
      test_trace_endpoint_and_request_id_echo;
    Alcotest.test_case "off mode is silent" `Quick test_off_mode_is_silent;
  ]
