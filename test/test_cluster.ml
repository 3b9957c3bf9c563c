(* Kill-a-node chaos suite: three real `dsvc serve --peers` processes
   on loopback, a mixed workload driven through the failover client,
   SIGKILL of the primary mid-workload, rejoin, anti-entropy, and a
   replicated fsck of every node. The acceptance bar: zero failed
   client requests end to end, and the cluster's optimize produces the
   byte-identical storage plan a single-node repository computes for
   the same history. *)

open Versioning_store

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let dsvc_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dsvc.exe"

let temp_dir () =
  let path = Filename.temp_file "dsvc_chaos" "" in
  Sys.remove path;
  path

type node = {
  name : string;  (* host:port — the ring member name *)
  port : int;
  dir : string;
  peer_names : string list;
  log : string;
  mutable pid : int;
}

let mk_nodes () =
  (* three adjacent ports, offset by pid so parallel checkouts of the
     repo don't collide *)
  let base = 22100 + (Unix.getpid () mod 400 * 3) in
  let name i = Printf.sprintf "127.0.0.1:%d" (base + i) in
  List.init 3 (fun i ->
      let dir = temp_dir () in
      {
        name = name i;
        port = base + i;
        dir;
        peer_names = List.filter (( <> ) (name i)) (List.init 3 name);
        log = dir ^ ".log";
        pid = -1;
      })

let spawn node =
  let out =
    (* lint: raw-write-ok throwaway capture of a child server's
       stdout/stderr for failure diagnostics, not repository data *)
    Unix.openfile node.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let argv =
    [|
      dsvc_exe; "serve"; "-C"; node.dir;
      "-p"; string_of_int node.port;
      "--peers"; String.concat "," node.peer_names;
      "--replicas"; "2";
    |]
  in
  node.pid <- Unix.create_process dsvc_exe argv Unix.stdin out out;
  Unix.close out

let node_client node =
  let _, port = ok (Client.parse_endpoint node.name) in
  Client.connect ~timeout:2.0 ~retries:1 ~host:"127.0.0.1" ~port ()

let read_log node =
  try In_channel.with_open_bin node.log In_channel.input_all
  with Sys_error _ -> "(no log)"

let tail_log node =
  let s = read_log node in
  let n = String.length s in
  String.sub s (max 0 (n - 2000)) (min n 2000)

let contains hay needle =
  let nn = String.length needle and nb = String.length hay in
  let rec go i = i + nn <= nb && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let wait_healthy node =
  let client = node_client node in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec poll () =
    match Client.health client with
    | Ok kv when List.assoc_opt "status" kv = Some "ok" -> ()
    | _ ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "node %s never became healthy; log tail:\n%s"
            node.name (tail_log node)
        else begin
          Unix.sleepf 0.1;
          poll ()
        end
  in
  poll ()

let sigkill node =
  Unix.kill node.pid Sys.sigkill;
  ignore (Unix.waitpid [] node.pid);
  node.pid <- -1

let sigterm node =
  if node.pid > 0 then begin
    Unix.kill node.pid Sys.sigterm;
    ignore (Unix.waitpid [] node.pid);
    node.pid <- -1
  end

let run_fsck node =
  let argv =
    [|
      dsvc_exe; "fsck"; "-C"; node.dir;
      "--peers"; String.concat "," node.peer_names;
      "--self"; node.name;
    |]
  in
  let out =
    (* lint: raw-write-ok same throwaway child-output capture as spawn *)
    Unix.openfile node.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process dsvc_exe argv Unix.stdin out out in
  Unix.close out;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ ->
      Alcotest.failf "fsck on %s found problems; log tail:\n%s" node.name
        (tail_log node)

(* the versioned "dataset": linear history of a growing table *)
let content_of v =
  String.concat "\n"
    (List.init (40 + (8 * v)) (fun i ->
         Printf.sprintf "row %d,value %d,version %d" i ((i * 7) + v) v))

let test_chaos () =
  if not (Sys.file_exists dsvc_exe) then
    Alcotest.failf "dsvc binary not found at %s" dsvc_exe;
  let nodes = mk_nodes () in
  (* init via the CLI: an in-process [Repo.init] would keep the
     repository lock inside this test process and starve the server *)
  List.iter
    (fun n ->
      let pid =
        Unix.create_process dsvc_exe
          [| dsvc_exe; "init"; "-C"; n.dir |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "dsvc init failed for %s" n.dir)
    nodes;
  let finally () =
    List.iter (fun n -> if n.pid > 0 then sigkill n) nodes;
    List.iter
      (fun n ->
        ignore
          (Sys.command
             (Printf.sprintf "rm -rf %s %s" (Filename.quote n.dir)
                (Filename.quote n.log))))
      nodes
  in
  Fun.protect ~finally @@ fun () ->
  (* a fast sampling step (inherited by the children) so the health
     observatory reacts within the test's timescale *)
  let old_step = Sys.getenv_opt "DSVC_TS_STEP" in
  Unix.putenv "DSVC_TS_STEP" "0.2";
  let restore_step () =
    Unix.putenv "DSVC_TS_STEP"
      (match old_step with Some s -> s | None -> "")
  in
  Fun.protect ~finally:restore_step @@ fun () ->
  List.iter spawn nodes;
  List.iter wait_healthy nodes;
  let cc = ok (Client.connect_many (List.map (fun n -> n.name) nodes)) in
  let failures = ref [] in
  let must label r =
    match r with
    | Ok v -> Some v
    | Error e ->
        failures := Printf.sprintf "%s: %s" label e :: !failures;
        None
  in
  (* ---- phase 1: all nodes up ---- *)
  for v = 1 to 4 do
    match
      must
        (Printf.sprintf "commit v%d" v)
        (Client.commit cc ~message:(Printf.sprintf "v%d" v)
           (content_of v))
    with
    | Some id -> Alcotest.(check int) "sequential ids" v id
    | None -> ()
  done;
  (match must "checkout v2 (all up)" (Client.checkout cc "2") with
  | Some got -> Alcotest.(check string) "v2 bytes" (content_of 2) got
  | None -> ());
  ignore (must "stats (all up)" (Client.stats cc));
  (* ---- chaos: SIGKILL the primary mid-workload ---- *)
  let primary = List.hd nodes in
  sigkill primary;
  for v = 5 to 7 do
    match
      must
        (Printf.sprintf "commit v%d (primary dead)" v)
        (Client.commit cc ~message:(Printf.sprintf "v%d" v)
           (content_of v))
    with
    | Some id -> Alcotest.(check int) "ids survive failover" v id
    | None -> ()
  done;
  List.iter
    (fun v ->
      match
        must
          (Printf.sprintf "checkout v%d (primary dead)" v)
          (Client.checkout cc (string_of_int v))
      with
      | Some got ->
          Alcotest.(check string)
            (Printf.sprintf "v%d bytes after failover" v)
            (content_of v) got
      | None -> ())
    [ 1; 5; 7 ];
  ignore (must "optimize (primary dead)" (Client.optimize cc "min-storage"));
  ignore (must "verify (primary dead)" (Client.verify cc));
  (* ---- cluster-wide scrape with the primary still dead: per-peer
     families from the live node, scrape_up 0 + an annotation for the
     dead one — partial results, never a failed request ---- *)
  (let scraper = List.nth nodes 1 in
   let other = List.nth nodes 2 in
   match
     must "cluster metrics scrape (primary dead)"
       (Client.request (node_client scraper) ~meth:"GET"
          ~path:"/metrics/cluster" ())
   with
   | None -> ()
   | Some (status, body) ->
       Alcotest.(check int) "scrape 200" 200 status;
       let contains = contains body in
       Alcotest.(check bool) "scraping node reports itself up" true
         (contains
            (Printf.sprintf "dsvc_cluster_scrape_up{peer=%S} 1" scraper.name));
       Alcotest.(check bool) "live peer reported up" true
         (contains
            (Printf.sprintf "dsvc_cluster_scrape_up{peer=%S} 1" other.name));
       Alcotest.(check bool) "dead primary reported down" true
         (contains
            (Printf.sprintf "dsvc_cluster_scrape_up{peer=%S} 0" primary.name));
       Alcotest.(check bool) "dead primary annotated" true
         (contains (Printf.sprintf "# peer %s unreachable" primary.name));
       Alcotest.(check bool) "live peer's families carry its label" true
         (contains
            (Printf.sprintf "dsvc_server_requests_total{peer=%S" other.name)));
  (* ---- the health observatory sees the outage (DESIGN.md §16):
     within a few sampling steps the scrape-up SLI drops below 1, the
     immediate cluster_scrape_up threshold fires, and the failover-era
     hints show up as replication-lag series ---- *)
  (let scraper = List.nth nodes 1 in
   let client = node_client scraper in
   let deadline = Unix.gettimeofday () +. 10.0 in
   let rec poll_firing () =
     match Client.request client ~meth:"GET" ~path:"/alerts" () with
     | Ok (200, body) when contains body "cluster_scrape_up firing" -> body
     | _ when Unix.gettimeofday () > deadline ->
         Alcotest.failf
           "cluster_scrape_up never fired with the primary dead; log tail:\n%s"
           (tail_log scraper)
     | _ ->
         Unix.sleepf 0.2;
         poll_firing ()
   in
   ignore (poll_firing ());
   (match
      Client.request client ~meth:"GET" ~path:"/timeseries" ()
    with
   | Ok (200, body) ->
       Alcotest.(check bool) "sampled series exist" true
         (String.trim body <> "");
       Alcotest.(check bool) "scrape-up SLI series present" true
         (contains body "sli:scrape_up")
   | r ->
       Alcotest.failf "GET /timeseries failed: %s"
         (match r with
         | Ok (status, _) -> Printf.sprintf "HTTP %d" status
         | Error e -> e));
   (* Hints for the dead primary are parked on whichever survivor
      coordinated the failover-era commits, and the lag gauge reaches
      that node's ring one sampling step after its probe exports it —
      so poll both survivors rather than assuming the scraper. *)
   (let survivors = [ List.nth nodes 1; List.nth nodes 2 ] in
    let lag_deadline = Unix.gettimeofday () +. 10.0 in
    let has_lag n =
      match
        Client.request (node_client n) ~meth:"GET" ~path:"/timeseries" ()
      with
      | Ok (200, body) -> contains body "dsvc_cluster_hint_queue_depth"
      | _ -> false
    in
    let rec poll_lag () =
      if List.exists has_lag survivors then ()
      else if Unix.gettimeofday () > lag_deadline then
        Alcotest.fail
          "no survivor ever recorded a dsvc_cluster_hint_queue_depth series"
      else (
        Unix.sleepf 0.2;
        poll_lag ())
    in
    poll_lag ());
   (match
      Client.request client ~meth:"GET" ~path:"/timeseries"
        ~query:[ ("metric", "sli:scrape_up"); ("since", "60") ]
        ()
    with
   | Ok (200, body) ->
       Alcotest.(check bool) "scrape-up history non-empty" true
         (String.trim body <> "")
   | _ -> Alcotest.fail "GET /timeseries?metric=sli:scrape_up failed");
   (* the dashboard renders one frame off the same endpoints *)
   let dash_out = scraper.dir ^ ".dash" in
   let out =
     (* lint: raw-write-ok throwaway capture of the dash frame for
        failure diagnostics, not repository data *)
     Unix.openfile dash_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
   in
   let pid =
     Unix.create_process dsvc_exe
       [|
         dsvc_exe; "dash"; "--host"; "127.0.0.1";
         "-p"; string_of_int scraper.port; "--once";
       |]
       Unix.stdin out out
   in
   Unix.close out;
   (match Unix.waitpid [] pid with
   | _, Unix.WEXITED 0 -> ()
   | _ ->
       let frame =
         try
           let ic = open_in_bin dash_out in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         with
         (* lint: swallow-ok best-effort read of the failed dash
            frame for the failure message — the test fails either
            way on the next line *)
         | _ -> "(no output)"
       in
       Alcotest.failf "dsvc dash --once failed; output:\n%s" frame);
   Sys.remove dash_out);
  (* ---- determinism: the cluster's plan is byte-identical to a
     single-node repository given the same history ---- *)
  let reference = ok (Repo.init ~path:(temp_dir ())) in
  for v = 1 to 7 do
    ignore (ok (Repo.commit reference ~message:(Printf.sprintf "v%d" v) (content_of v)))
  done;
  ignore (ok (Repo.optimize reference (ok (Server.parse_strategy "min-storage"))));
  let s = Repo.stats reference in
  let expected =
    [
      ("versions", string_of_int s.Repo.n_versions);
      ("storage_bytes", string_of_int s.Repo.storage_bytes);
      ("materialized", string_of_int s.Repo.n_full);
      ("delta_stored", string_of_int s.Repo.n_delta);
      ("max_chain", string_of_int s.Repo.max_chain);
      ("sum_recreation", Printf.sprintf "%.0f" s.Repo.sum_recreation_bytes);
      ("max_recreation", Printf.sprintf "%.0f" s.Repo.max_recreation_bytes);
    ]
  in
  (match must "stats after optimize" (Client.stats cc) with
  | None -> ()
  | Some kv ->
      List.iter
        (fun (key, want) ->
          Alcotest.(check (option string))
            ("plan matches single-node: " ^ key)
            (Some want) (List.assoc_opt key kv))
        expected);
  (* ---- rejoin + anti-entropy ---- *)
  spawn primary;
  wait_healthy primary;
  (* a surviving node pushes current metadata and restores replication;
     its hint ledger (it handled the failover-era writes) drains here *)
  let survivor = List.nth nodes 1 in
  (match must "anti-entropy after rejoin" (Client.anti_entropy (node_client survivor)) with
  | None -> ()
  | Some kv ->
      Alcotest.(check (option string)) "sweep reports no failures" (Some "0")
        (List.assoc_opt "failed" kv));
  (* the rejoined node now answers for the full history through its
     replicated view, with adopted metadata *)
  (match must "checkout v7 on the rejoined node"
           (Client.checkout (node_client primary) "7")
  with
  | Some got -> Alcotest.(check string) "rejoined node serves v7" (content_of 7) got
  | None -> ());
  List.iter
    (fun n -> ignore (must ("verify on " ^ n.name) (Client.verify (node_client n))))
    nodes;
  Alcotest.(check (list string)) "zero failed client requests" []
    (List.rev !failures);
  (* ---- replicated fsck of every node (stopped node, live peers) ---- *)
  List.iter
    (fun n ->
      sigterm n;
      run_fsck n;
      spawn n;
      wait_healthy n)
    nodes;
  List.iter sigterm nodes

let suite = [ Alcotest.test_case "kill-a-node chaos" `Slow test_chaos ]
