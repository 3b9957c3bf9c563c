(* In-process replication: quorum writes, hinted handoff, fan-out
   reads with verification and read-repair, the failure detector's
   probation machinery, and the anti-entropy sweep — all over memory
   backends, no sockets, no sleeping. *)

open Versioning_store

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e
let digest_of = Content_hash.hex

(* A memory backend with a kill switch: while [down] is set every
   operation fails like an unreachable peer. [inner] stays inspectable
   so tests can look at what the node physically holds. *)
let flaky name =
  let inner = Backend.memory () in
  let down = ref false in
  let guard f = if !down then Error (name ^ " unreachable") else f () in
  let b =
    {
      Backend.name;
      put = (fun ~digest content -> guard (fun () -> inner.Backend.put ~digest content));
      get = (fun ~digest -> guard (fun () -> inner.Backend.get ~digest));
      mem = (fun ~digest -> (not !down) && inner.Backend.mem ~digest);
      delete = (fun ~digest -> if not !down then inner.Backend.delete ~digest);
      list = (fun () -> if !down then [] else inner.Backend.list ());
      total_bytes = (fun () -> if !down then 0 else inner.Backend.total_bytes ());
      quarantine = (fun ~digest -> guard (fun () -> inner.Backend.quarantine ~digest));
      ping = (fun () -> guard (fun () -> inner.Backend.ping ()));
      batch = Backend.unbatched;
    }
  in
  (b, down, inner)

(* Three-node cluster viewed from "a", replicas=2. Returns the view,
   the ring (same parameters, for picking digests with known
   placement), and per-node handles. *)
let mk_cluster ?detector () =
  let a = Backend.memory () in
  let b, b_down, b_inner = flaky "b" in
  let c, c_down, c_inner = flaky "c" in
  let r =
    Replicated.create ?detector ~replicas:2 ~self:"a" ~self_backend:a
      ~peers:[ ("b", b); ("c", c) ]
      ()
  in
  let ring = Ring.create ~members:[ "a"; "b"; "c" ] () in
  (r, ring, [ ("a", a); ("b", b_inner); ("c", c_inner) ], b_down, c_down)

(* First content (from a deterministic family) whose owner list
   satisfies [pred]. *)
let find_content ring ~n pred =
  let rec go i =
    if i > 5000 then Alcotest.fail "no content with wanted placement"
    else
      let content = Printf.sprintf "payload-%d" i in
      if pred (Ring.owners ring (digest_of content) ~n) then content
      else go (i + 1)
  in
  go 0

let inner_of backends name : Backend.t = List.assoc name backends

let test_put_replicates_to_owners () =
  let r, ring, backends, _, _ = mk_cluster () in
  for i = 0 to 19 do
    let content = Printf.sprintf "blob-%d" i in
    let digest = digest_of content in
    ok (Replicated.put r ~digest content);
    let owners = Ring.owners ring digest ~n:2 in
    List.iter
      (fun (name, b) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s holds %d iff owner" name i)
          (List.mem name owners)
          (b.Backend.mem ~digest))
      backends
  done;
  Alcotest.(check int) "no hints parked" 0 (Replicated.pending_hints r)

let test_object_store_oblivious () =
  (* the repo-facing layer cannot tell the store is clustered *)
  let r, _, _, _, _ = mk_cluster () in
  let store = Object_store.of_backend (Replicated.backend r) in
  let digest = ok (Object_store.put store "alpha\nbeta") in
  Alcotest.(check string) "round trip" "alpha\nbeta"
    (ok (Object_store.get store digest));
  Alcotest.(check bool) "status ok" true (Object_store.status store digest = `Ok);
  Alcotest.(check (list string)) "listed once" [ digest ]
    (Object_store.list_digests store)

let test_handoff_and_hint_delivery () =
  let r, ring, backends, b_down, _ = mk_cluster () in
  let content = find_content ring ~n:2 (fun owners -> List.mem "b" owners) in
  let digest = digest_of content in
  b_down := true;
  ok (Replicated.put r ~digest content);
  Alcotest.(check int) "one hint parked" 1 (Replicated.pending_hints r);
  Alcotest.(check bool) "b missed the write" false
    ((inner_of backends "b").Backend.mem ~digest);
  (* two copies exist regardless (other owner + stand-in) *)
  let copies =
    List.length
      (List.filter (fun (_, b) -> b.Backend.mem ~digest) backends)
  in
  Alcotest.(check int) "quorum-many copies" 2 copies;
  (* owner returns: the parked copy is delivered and the debt cleared *)
  b_down := false;
  Alcotest.(check int) "one hint delivered" 1 (Replicated.deliver_hints r);
  Alcotest.(check bool) "b caught up" true
    ((inner_of backends "b").Backend.mem ~digest);
  Alcotest.(check int) "ledger empty" 0 (Replicated.pending_hints r)

let test_quorum_failure_when_both_owners_down () =
  let r, ring, _, b_down, c_down = mk_cluster () in
  let content =
    find_content ring ~n:2 (fun owners ->
        List.sort compare owners = [ "b"; "c" ])
  in
  b_down := true;
  c_down := true;
  (* only the stand-in copy on a can land: 1 < quorum of 2 *)
  match Replicated.put r ~digest:(digest_of content) content with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "write quorum must fail with both owners down"

let test_read_repair_missing_primary () =
  let r, ring, backends, _, _ = mk_cluster () in
  let content = "repair me" in
  let digest = digest_of content in
  ok (Replicated.put r ~digest content);
  let primary = List.hd (Ring.sequence ring digest) in
  (inner_of backends primary).Backend.delete ~digest;
  Alcotest.(check string) "served from the surviving replica" content
    (ok (Replicated.get r ~digest));
  Alcotest.(check bool) "primary repaired inline" true
    ((inner_of backends primary).Backend.mem ~digest)

let test_corrupt_replica_loses_the_race () =
  let r, ring, backends, _, _ = mk_cluster () in
  let content = "precious bytes" in
  let digest = digest_of content in
  ok (Replicated.put r ~digest content);
  let primary = List.hd (Ring.sequence ring digest) in
  let pb = inner_of backends primary in
  (* plant a wrong blob under the right digest on the primary *)
  pb.Backend.delete ~digest;
  ok (pb.Backend.put ~digest "evil twin");
  Alcotest.(check string) "verification skips the corrupt copy" content
    (ok (Replicated.get r ~digest));
  Alcotest.(check string) "and read-repair replaced it" content
    (ok (pb.Backend.get ~digest))

let test_detector_probation_backoff () =
  let now = ref 0.0 in
  let d =
    Detector.create ~threshold:3 ~probation_base:0.5 ~probation_max:4.0
      ~now:(fun () -> !now)
      ()
  in
  let st () = Detector.state d ~name:"p" in
  Alcotest.(check bool) "unknown peer is up" true (st () = `Up);
  Detector.fail d ~name:"p" "boom";
  Detector.fail d ~name:"p" "boom";
  Alcotest.(check bool) "below threshold still up" true (st () = `Up);
  Detector.fail d ~name:"p" "boom";
  Alcotest.(check bool) "third strike trips probation" true (st () = `Down);
  Alcotest.(check bool) "not usable while down" false (Detector.usable d ~name:"p");
  now := 0.6;
  Alcotest.(check bool) "probation expiry allows a probe" true (st () = `Probe);
  Alcotest.(check bool) "probe counts as usable" true (Detector.usable d ~name:"p");
  (* relapse: cool-off doubles (0.5 → 1.0) *)
  Detector.fail d ~name:"p" "still dead";
  Alcotest.(check bool) "relapse re-enters probation" true (st () = `Down);
  now := 1.5;
  Alcotest.(check bool) "doubled cool-off still holds" true (st () = `Down);
  now := 1.7;
  Alcotest.(check bool) "expires at the doubled deadline" true (st () = `Probe);
  Detector.ok d ~name:"p";
  Alcotest.(check bool) "one success fully resets" true (st () = `Up);
  match Detector.report d with
  | [ ("p", `Up, "") ] -> ()
  | _ -> Alcotest.fail "report must show the reset peer"

let test_anti_entropy_restores_replication () =
  let r, ring, backends, b_down, _ = mk_cluster () in
  (* write a spread of blobs while b is dead: every one owned by b is
     parked elsewhere with a hint *)
  b_down := true;
  let contents = List.init 12 (Printf.sprintf "rejoin-%d") in
  List.iter
    (fun content -> ok (Replicated.put r ~digest:(digest_of content) content))
    contents;
  Alcotest.(check bool) "some writes were handed off" true
    (Replicated.pending_hints r > 0);
  (* node restarts; one sweep restores full replication *)
  b_down := false;
  let report =
    Replicated.anti_entropy r ~digests:(List.map digest_of contents)
  in
  Alcotest.(check (list string)) "no failures" [] report.Replicated.failed;
  Alcotest.(check int) "all digests checked" 12 report.Replicated.checked;
  Alcotest.(check bool) "sweep wrote copies" true (report.Replicated.repaired > 0);
  Alcotest.(check int) "ledger drained" 0 (Replicated.pending_hints r);
  List.iter
    (fun content ->
      let digest = digest_of content in
      List.iter
        (fun owner ->
          Alcotest.(check bool)
            (Printf.sprintf "%s holds its share of %s" owner digest)
            true
            ((inner_of backends owner).Backend.mem ~digest))
        (Ring.owners ring digest ~n:2))
    contents;
  (* a second sweep is a no-op: convergence, not churn *)
  let again =
    Replicated.anti_entropy r ~digests:(List.map digest_of contents)
  in
  Alcotest.(check int) "idempotent sweep" 0 again.Replicated.repaired

let test_anti_entropy_replaces_corrupt_copy () =
  let r, ring, backends, _, _ = mk_cluster () in
  let content = "bit rot victim" in
  let digest = digest_of content in
  ok (Replicated.put r ~digest content);
  let owner = List.hd (Ring.owners ring digest ~n:2) in
  let ob = inner_of backends owner in
  ob.Backend.delete ~digest;
  ok (ob.Backend.put ~digest "rotten");
  let report = Replicated.anti_entropy r ~digests:[ digest ] in
  Alcotest.(check (list string)) "sweep clean" [] report.Replicated.failed;
  Alcotest.(check string) "owner's copy replaced" content
    (ok (ob.Backend.get ~digest))

let test_quorum_metrics_observable () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  let r, ring, _, b_down, _ = mk_cluster () in
  let content = find_content ring ~n:2 (fun owners -> List.mem "b" owners) in
  b_down := true;
  ok (Replicated.put r ~digest:(digest_of content) content);
  let text = Metrics.to_prometheus () in
  (* the handoff copy keeps the write fully replicated — sloppy quorum
     reports "ok", and the parked hint records the placement debt *)
  Alcotest.(check bool) "quorum outcome counted" true
    (contains text {|dsvc_cluster_quorum_total{op="put",outcome="ok"} 1|});
  Alcotest.(check bool) "hint counted" true
    (contains text {|dsvc_cluster_hints_total{owner="b"} 1|});
  Metrics.reset ()

(* Replication-lag gauges (DESIGN.md §16): the ledger keeps each
   hint's park time, so with an injected clock the oldest-age gauge is
   exact; a drained owner is explicitly zeroed, not dropped, so the
   time-series records the recovery instead of a gap. *)
let test_lag_metrics () =
  let module Obs = Versioning_obs.Obs in
  let module Metrics = Versioning_obs.Metrics in
  let clock = ref 1000.0 in
  let a = Backend.memory () in
  let b, b_down, _ = flaky "b" in
  let c, _, _ = flaky "c" in
  let r =
    Replicated.create ~replicas:2
      ~now:(fun () -> !clock)
      ~self:"a" ~self_backend:a
      ~peers:[ ("b", b); ("c", c) ]
      ()
  in
  let ring = Ring.create ~members:[ "a"; "b"; "c" ] () in
  let content = find_content ring ~n:2 (fun owners -> List.mem "b" owners) in
  b_down := true;
  ok (Replicated.put r ~digest:(digest_of content) content);
  Obs.with_enabled true @@ fun () ->
  Metrics.reset ();
  clock := 1042.0;
  Replicated.export_lag_metrics r;
  let value name =
    match List.assoc_opt name (Metrics.snapshot_values ()) with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.(check (float 1e-9)) "queue depth" 1.0
    (value {|dsvc_cluster_hint_queue_depth{owner="b"}|});
  Alcotest.(check (float 1e-9)) "oldest age from the injected clock" 42.0
    (value {|dsvc_cluster_hint_oldest_age_seconds{owner="b"}|});
  b_down := false;
  Alcotest.(check int) "hint delivered" 1 (Replicated.deliver_hints r);
  Replicated.export_lag_metrics r;
  Alcotest.(check (float 1e-9)) "drained owner zeroed, not dropped" 0.0
    (value {|dsvc_cluster_hint_queue_depth{owner="b"}|});
  Alcotest.(check (float 1e-9)) "age zeroed too" 0.0
    (value {|dsvc_cluster_hint_oldest_age_seconds{owner="b"}|});
  Metrics.reset ()

let suite =
  [
    Alcotest.test_case "put replicates to ring owners" `Quick
      test_put_replicates_to_owners;
    Alcotest.test_case "object store is cluster-oblivious" `Quick
      test_object_store_oblivious;
    Alcotest.test_case "hinted handoff and delivery" `Quick
      test_handoff_and_hint_delivery;
    Alcotest.test_case "quorum failure surfaces" `Quick
      test_quorum_failure_when_both_owners_down;
    Alcotest.test_case "read-repair of a missing primary" `Quick
      test_read_repair_missing_primary;
    Alcotest.test_case "corrupt replica never wins" `Quick
      test_corrupt_replica_loses_the_race;
    Alcotest.test_case "detector probation backoff" `Quick
      test_detector_probation_backoff;
    Alcotest.test_case "anti-entropy after rejoin" `Quick
      test_anti_entropy_restores_replication;
    Alcotest.test_case "anti-entropy replaces corruption" `Quick
      test_anti_entropy_replaces_corrupt_copy;
    Alcotest.test_case "quorum and hints are observable" `Quick
      test_quorum_metrics_observable;
    Alcotest.test_case "hint-lag gauges track the ledger" `Quick
      test_lag_metrics;
  ]
