module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace

let log_src = Logs.Src.create "dsvc.cluster" ~doc:"Replicated store"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  self : string;
  replicas : int;
  ring : Ring.t;
  backends : (string * Backend.t) list;  (* ring order irrelevant; incl self *)
  detector : Detector.t;
  now : unit -> float;
  mutex : Mutex.t;
  (* Hinted handoff ledger: [(intended_owner, digest)] copies parked on
     a stand-in node while the owner was down, delivered by
     {!anti_entropy}; the value is the hint's creation time so
     {!export_lag_metrics} can report per-owner queue age. In-memory
     only — a hint lost to a process death is re-derived by the full
     anti-entropy sweep. *)
  hints : (string * string, float) Hashtbl.t;
  (* Owners that have ever had a hint parked: drained queues must keep
     reporting depth 0 / age 0 instead of a stale last value. *)
  lag_owners : (string, unit) Hashtbl.t;
}

type report = { checked : int; repaired : int; failed : string list }

let create ?(replicas = 2) ?vnodes ?detector ?(now = Unix.gettimeofday) ~self
    ~self_backend ~peers () =
  let backends = (self, self_backend) :: peers in
  let members = List.map fst backends in
  let ring = Ring.create ?vnodes ~members () in
  let detector =
    match detector with Some d -> d | None -> Detector.create ()
  in
  {
    self;
    replicas = max 1 (min replicas (List.length members));
    ring;
    backends;
    detector;
    now;
    mutex = Mutex.create ();
    hints = Hashtbl.create 16;
    lag_owners = Hashtbl.create 4;
  }

let self t = t.self
let replicas t = t.replicas
let ring_epoch t = Ring.epoch t.ring
let members t = Ring.members t.ring
let backend_of t name = List.assoc name t.backends

let usable t name = name = t.self || Detector.usable t.detector ~name

let peers t =
  List.filter_map
    (fun (name, _) ->
      if name = t.self then None
      else
        let state = Detector.state t.detector ~name in
        let err =
          List.assoc_opt name
            (List.map (fun (n, _, e) -> (n, e)) (Detector.report t.detector))
        in
        Some (name, state, Option.value ~default:"" err))
    t.backends

let quorum t = (t.replicas / 2) + 1

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let add_hint t ~owner ~digest =
  let created = t.now () in
  with_lock t (fun () ->
      (* A re-parked copy keeps its original timestamp: the owner's
         debt is as old as its first miss. *)
      if not (Hashtbl.mem t.hints (owner, digest)) then
        Hashtbl.replace t.hints (owner, digest) created;
      Hashtbl.replace t.lag_owners owner ());
  Metrics.counter "dsvc_cluster_hints_total"
    ~labels:[ ("owner", owner) ]
    ~help:"Hinted-handoff copies parked for a down owner"

let pending_hints t = with_lock t (fun () -> Hashtbl.length t.hints)

(* Replication-lag gauges from the hint ledger: per-owner queue depth
   and oldest-hint age. Owners whose queue has fully drained are
   reported as 0/0 (not dropped) so dashboards and the sampler see the
   recovery, not a stale last value. Gauges are emitted after the
   ledger lock is released — the with_lock region stays Hashtbl-only. *)
let export_lag_metrics t =
  let now = t.now () in
  let depth : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let oldest : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let owners =
    with_lock t (fun () ->
        Hashtbl.iter
          (fun (owner, _) created ->
            Hashtbl.replace depth owner
              (1 + Option.value (Hashtbl.find_opt depth owner) ~default:0);
            let age = Float.max 0.0 (now -. created) in
            match Hashtbl.find_opt oldest owner with
            | Some a when a >= age -> ()
            | _ -> Hashtbl.replace oldest owner age)
          t.hints;
        Hashtbl.fold (fun o () acc -> o :: acc) t.lag_owners [])
  in
  List.iter
    (fun owner ->
      Metrics.gauge "dsvc_cluster_hint_queue_depth"
        ~labels:[ ("owner", owner) ]
        ~help:"Hinted-handoff copies still parked, by intended owner"
        (float_of_int
           (Option.value (Hashtbl.find_opt depth owner) ~default:0));
      Metrics.gauge "dsvc_cluster_hint_oldest_age_seconds"
        ~labels:[ ("owner", owner) ]
        ~help:"Age of the oldest parked hint, by intended owner"
        (Option.value (Hashtbl.find_opt oldest owner) ~default:0.0))
    (List.sort compare owners)

(* Run one backend operation against one member, feeding the failure
   detector. Failover decisions elsewhere key off the updated state. *)
let probe_result t name result =
  (match result with
  | Ok _ -> if name <> t.self then Detector.ok t.detector ~name
  | Error e ->
      if name <> t.self then begin
        Detector.fail t.detector ~name e;
        Metrics.counter "dsvc_cluster_peer_errors_total"
          ~labels:[ ("peer", name) ]
          ~help:"Failed exchanges with a peer, pre-detector";
        Log.warn (fun m -> m "peer %s error: %s" name e)
      end);
  result

let quorum_outcome ~op outcome =
  Metrics.counter "dsvc_cluster_quorum_total"
    ~labels:[ ("op", op); ("outcome", outcome) ]
    ~help:"Quorum decisions by operation and outcome"

let put t ~digest content =
  Trace.with_span "cluster.put" @@ fun () ->
  let owners = Ring.owners t.ring digest ~n:t.replicas in
  let stored = ref [] in
  let failed_owners = ref [] in
  let try_put name =
    let b = backend_of t name in
    match probe_result t name (b.Backend.put ~digest content) with
    | Ok () ->
        stored := name :: !stored;
        true
    | Error _ -> false
  in
  List.iter
    (fun owner ->
      if usable t owner then begin
        if not (try_put owner) then failed_owners := owner :: !failed_owners
      end
      else failed_owners := owner :: !failed_owners)
    owners;
  (* Hinted handoff: each unreachable owner's copy goes to the next
     usable non-owner on the ring, and a hint records the debt. *)
  let handoff_candidates =
    List.filter
      (fun name -> (not (List.mem name owners)) && usable t name)
      (Ring.sequence t.ring digest)
  in
  let candidates = ref handoff_candidates in
  List.iter
    (fun owner ->
      let rec place () =
        match !candidates with
        | [] -> ()
        | c :: rest ->
            candidates := rest;
            if List.mem c !stored then place ()
            else if try_put c then begin
              add_hint t ~owner ~digest;
              Log.warn (fun m ->
                  m "handoff: %s holds %s for down owner %s" c digest owner)
            end
            else place ()
      in
      place ())
    (List.rev !failed_owners);
  let n = List.length !stored in
  if n >= quorum t then begin
    quorum_outcome ~op:"put" (if n >= t.replicas then "ok" else "degraded");
    Ok ()
  end
  else begin
    quorum_outcome ~op:"put" "failed";
    Error
      (Printf.sprintf "write quorum not reached for %s (%d/%d, need %d)"
         digest n t.replicas (quorum t))
  end

let get t ~digest =
  Trace.with_span "cluster.get" @@ fun () ->
  let owners = Ring.owners t.ring digest ~n:t.replicas in
  let order = Ring.sequence t.ring digest in
  (* Owners we observed failing before a good copy turned up; those
     get repaired from the copy we return. *)
  let missed = ref [] in
  let rec read = function
    | [] -> Error (Printf.sprintf "object %s not found on any replica" digest)
    | name :: rest ->
        let miss () =
          if List.mem name owners then missed := name :: !missed;
          read rest
        in
        if not (usable t name) then miss ()
        else
          let b = backend_of t name in
          match probe_result t name (b.Backend.get ~digest) with
          | Error _ -> miss ()
          | Ok content ->
              (* Verify per replica: a stale or bit-flipped copy on one
                 node must not win the race just for being first. *)
              if Content_hash.hex content <> digest then begin
                Metrics.counter "dsvc_cluster_replica_corrupt_total"
                  ~labels:[ ("peer", name) ]
                  ~help:"Replica reads failing digest verification";
                Log.warn (fun m ->
                    m "replica %s returned corrupt copy of %s" name digest);
                miss ()
              end
              else begin
                let primary = match order with p :: _ -> p | [] -> "" in
                if name <> primary then
                  Metrics.counter "dsvc_cluster_failover_total"
                    ~labels:[ ("op", "get") ]
                    ~help:"Reads served by a non-primary replica";
                List.iter
                  (fun owner ->
                    if usable t owner then begin
                      let ob = backend_of t owner in
                      (* A corrupt copy still answers [mem], and [put]
                         is idempotent — drop it first or the repair
                         write silently no-ops. *)
                      ob.Backend.delete ~digest;
                      match
                        probe_result t owner (ob.Backend.put ~digest content)
                      with
                      | Ok () ->
                          Metrics.counter "dsvc_cluster_read_repair_total"
                            ~labels:[ ("peer", owner) ]
                            ~help:"Missing/stale replicas rewritten during reads";
                          Log.info (fun m ->
                              m "read-repair: restored %s on %s" digest owner)
                      | Error _ -> ()
                    end)
                  !missed;
                Ok content
              end
  in
  read order

let mem t ~digest =
  List.exists
    (fun name ->
      usable t name
      &&
      let b = backend_of t name in
      b.Backend.mem ~digest)
    (Ring.sequence t.ring digest)

let delete t ~digest =
  List.iter
    (fun (name, b) -> if usable t name then b.Backend.delete ~digest)
    t.backends

let list t =
  let union : (string, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (name, b) ->
      if usable t name then
        match b.Backend.list () with
        | entries ->
            List.iter
              (fun (digest, size) ->
                match Hashtbl.find_opt union digest with
                | Some s when s >= size -> ()
                | _ -> Hashtbl.replace union digest size)
              entries
        | exception _ -> ((* lint: swallow-ok a peer dying mid-list must
                             not take down a stats request *)))
    t.backends;
  Hashtbl.fold (fun d s acc -> (d, s) :: acc) union [] |> List.sort compare

let total_bytes t =
  List.fold_left (fun acc (_, size) -> acc + size) 0 (list t)

let quarantine t ~digest =
  let rec go last = function
    | [] -> Error last
    | name :: rest ->
        if not (usable t name) then go last rest
        else
          let b = backend_of t name in
          (match b.Backend.quarantine ~digest with
          | Ok _ as ok ->
              (* Quarantine everywhere else too (best effort): the whole
                 point is taking the bad copy out of circulation. *)
              List.iter
                (fun n ->
                  if n <> name && usable t n then
                    ignore ((backend_of t n).Backend.quarantine ~digest))
                rest;
              ok
          | Error e -> go e rest)
  in
  go (Printf.sprintf "object %s not found" digest) (Ring.sequence t.ring digest)

(* Actively ping every peer — including ones deep in probation — and
   feed the detector. The rejoin path calls this first: a node that
   just restarted must flip to Up now, not when its probation happens
   to expire, or the sweep would skip exactly the node it exists to
   repair. *)
let probe t =
  List.iter
    (fun (name, b) ->
      if name <> t.self then ignore (probe_result t name (b.Backend.ping ())))
    t.backends

let deliver_hints t =
  let entries =
    with_lock t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) t.hints [])
  in
  List.fold_left
    (fun delivered (owner, digest) ->
      if not (usable t owner) then delivered
      else
        match get t ~digest with
        | Error _ ->
            (* No surviving copy — drop the hint; the blob is gone
               beyond what handoff can fix and fsck will say so. *)
            with_lock t (fun () -> Hashtbl.remove t.hints (owner, digest));
            delivered
        | Ok content -> (
            let b = backend_of t owner in
            match probe_result t owner (b.Backend.put ~digest content) with
            | Ok () ->
                with_lock t (fun () ->
                    Hashtbl.remove t.hints (owner, digest));
                Metrics.counter "dsvc_cluster_hints_delivered_total"
                  ~help:"Hinted-handoff copies delivered to their owner";
                Metrics.counter "dsvc_cluster_anti_entropy_repaired_bytes_total"
                  ~by:(float_of_int (String.length content))
                  ~help:"Bytes rewritten restoring replication (repairs + delivered hints)";
                delivered + 1
            | Error _ -> delivered))
    0 entries

let anti_entropy t ~digests =
  Trace.with_span "cluster.anti_entropy" @@ fun () ->
  Metrics.time "dsvc_cluster_anti_entropy_seconds"
    ~help:"Wall-clock duration of anti-entropy sweeps"
  @@ fun () ->
  probe t;
  let delivered = deliver_hints t in
  let repaired = ref delivered in
  let failed = ref [] in
  List.iter
    (fun digest ->
      match get t ~digest with
      | Error e -> failed := (digest ^ ": " ^ e) :: !failed
      | Ok content ->
          List.iter
            (fun owner ->
              if usable t owner then
                let b = backend_of t owner in
                (* Verify the owner's copy, not just its presence — the
                   sweep is the rejoin path and must also replace blobs
                   a crash or bit-flip damaged ([mem] can't see that,
                   and an idempotent [put] over a corrupt copy no-ops). *)
                let healthy =
                  match b.Backend.get ~digest with
                  | Ok c -> Content_hash.hex c = digest
                  | Error _ -> false
                in
                if not healthy then begin
                  b.Backend.delete ~digest;
                  match probe_result t owner (b.Backend.put ~digest content) with
                  | Ok () ->
                      incr repaired;
                      Metrics.counter
                        "dsvc_cluster_anti_entropy_repaired_bytes_total"
                        ~by:(float_of_int (String.length content))
                        ~help:"Bytes rewritten restoring replication (repairs + delivered hints)"
                  | Error e ->
                      failed := (digest ^ " on " ^ owner ^ ": " ^ e) :: !failed
                end)
            (Ring.owners t.ring digest ~n:t.replicas))
    digests;
  Metrics.counter "dsvc_cluster_anti_entropy_total"
    ~labels:
      [ ("outcome", (if !failed = [] then "clean" else "incomplete")) ]
    ~help:"Anti-entropy sweeps by outcome";
  { checked = List.length digests; repaired = !repaired; failed = List.rev !failed }

let backend t =
  {
    Backend.name = "replicated:" ^ t.self;
    put = (fun ~digest content -> put t ~digest content);
    get = (fun ~digest -> get t ~digest);
    mem = (fun ~digest -> mem t ~digest);
    delete = (fun ~digest -> delete t ~digest);
    list = (fun () -> list t);
    total_bytes = (fun () -> total_bytes t);
    quarantine = (fun ~digest -> quarantine t ~digest);
    ping = (fun () -> Ok ());
    batch = Backend.unbatched;
  }
