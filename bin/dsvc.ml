(* dsvc — dataset version control: the Git/SVN-like command-line
   interface over Versioning_store.Repo. *)

open Cmdliner
module Repo = Versioning_store.Repo
module Fsutil = Versioning_util.Fsutil
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Telemetry = Versioning_obs.Telemetry
module Trace = Versioning_obs.Trace
module Context = Versioning_obs.Context
module Flight = Versioning_obs.Flight
module Timeseries = Versioning_obs.Timeseries
module Logctx = Versioning_obs.Logctx

(* If DSVC_TRACE=file.json is set, dump the span ring as Chrome
   trace_event JSON when the process exits (load the file in
   chrome://tracing or Perfetto). The obs library never touches disk
   itself; the write goes through Fsutil here. *)
let dump_trace () =
  match Obs.trace_path () with
  | Some path when Trace.span_count () > 0 -> (
      match Fsutil.write_file path (Trace.to_chrome_json ()) with
      | Ok () -> Printf.eprintf "dsvc: wrote trace to %s\n" path
      | Error e -> Printf.eprintf "dsvc: cannot write trace %s: %s\n" path e)
  | _ -> ()

(* The flight recorder (DESIGN.md §11) stays in memory until a
   post-mortem needs it: a crash, a served repository's SIGTERM, or an
   explicit `dsvc flight-dump`. Normal exits write nothing. *)
let dump_flight ~reason =
  if Flight.event_count () > 0 then begin
    let path = Flight.default_path () in
    match Fsutil.write_file path (Flight.to_json ()) with
    | Ok () ->
        Printf.eprintf "dsvc: wrote flight record (%s) to %s\n" reason path
    | Error e ->
        Printf.eprintf "dsvc: cannot write flight record %s: %s\n" path e
  end

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "dsvc: %s\n" e;
      exit 1

let repo_dir =
  let doc = "Repository directory." in
  Arg.(value & opt string "." & info [ "C"; "repo" ] ~docv:"DIR" ~doc)

let open_repo dir =
  let repo = or_die (Repo.open_repo ~path:dir) in
  (* Close at process exit, whatever the command: the workload
     telemetry ledger is persisted by [Repo.close] (only when the
     observability gate is on), and a second close is a no-op. *)
  at_exit (fun () -> Repo.close repo);
  repo

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))
  with Sys_error e -> Error e

(* -- init -- *)

let init_cmd =
  let run dir =
    let _repo = or_die (Repo.init ~path:dir) in
    Printf.printf "Initialized empty dsvc repository in %s/.dsvc\n" dir
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Create an empty repository")
    Term.(const run $ repo_dir)

(* -- commit -- *)

let commit_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Dataset file to commit.")
  in
  let message =
    Arg.(value & opt string "" & info [ "m"; "message" ] ~docv:"MSG" ~doc:"Commit message.")
  in
  let parents =
    Arg.(
      value
      & opt (list int) []
      & info [ "p"; "parents" ] ~docv:"IDS"
          ~doc:"Explicit parent versions (two ids record a merge).")
  in
  let run dir file message parents =
    let repo = open_repo dir in
    let content = or_die (read_file file) in
    let parents = if parents = [] then None else Some parents in
    let id = or_die (Repo.commit repo ~message ?parents content) in
    Printf.printf "[%s] version %d (%d bytes)\n"
      (Repo.current_branch repo)
      id (String.length content)
  in
  Cmd.v
    (Cmd.info "commit" ~doc:"Record a new version of a dataset")
    Term.(const run $ repo_dir $ file $ message $ parents)

(* -- checkout -- *)

let checkout_cmd =
  let version =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"VERSION" ~doc:"Version id.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  let run dir version output =
    let repo = open_repo dir in
    let content = or_die (Repo.checkout repo version) in
    match output with
    | None -> print_string content
    | Some path ->
        or_die (Fsutil.write_file path content);
        Printf.printf "version %d -> %s (%d bytes)\n" version path
          (String.length content)
  in
  Cmd.v
    (Cmd.info "checkout" ~doc:"Reconstruct a version")
    Term.(const run $ repo_dir $ version $ output)

(* -- log -- *)

let log_cmd =
  let run dir =
    let repo = open_repo dir in
    List.iter
      (fun (c : Repo.commit_info) ->
        let parents =
          match c.parents with
          | [] -> "(root)"
          | ps -> String.concat ", " (List.map string_of_int ps)
        in
        Printf.printf "version %d  <- %s\n    %s\n" c.id parents
          (if c.message = "" then "(no message)" else c.message))
      (Repo.log repo)
  in
  Cmd.v (Cmd.info "log" ~doc:"List versions, newest first") Term.(const run $ repo_dir)

(* -- branch -- *)

let branch_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Branch to create (omit to list).")
  in
  let at =
    Arg.(value & opt (some int) None & info [ "at" ] ~docv:"VERSION" ~doc:"Branch point.")
  in
  let run dir name at =
    let repo = open_repo dir in
    match name with
    | None ->
        List.iter
          (fun (n, v) ->
            let marker = if n = Repo.current_branch repo then "*" else " " in
            Printf.printf "%s %s -> version %d\n" marker n v)
          (Repo.branches repo)
    | Some name ->
        or_die (Repo.create_branch repo name ?at ());
        Printf.printf "Created and switched to branch %s\n" name
  in
  Cmd.v
    (Cmd.info "branch" ~doc:"List branches or create one")
    Term.(const run $ repo_dir $ name_arg $ at)

let switch_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Branch name.")
  in
  let run dir name =
    let repo = open_repo dir in
    or_die (Repo.switch repo name);
    Printf.printf "Switched to branch %s\n" name
  in
  Cmd.v (Cmd.info "switch" ~doc:"Switch branches") Term.(const run $ repo_dir $ name_arg)

(* -- directory datasets -- *)

let commit_dir_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Dataset directory to commit as one version.")
  in
  let message =
    Arg.(value & opt string "" & info [ "m"; "message" ] ~docv:"MSG" ~doc:"Commit message.")
  in
  let run repo_path dataset_dir message =
    let repo = open_repo repo_path in
    let entries = or_die (Versioning_store.Archive.of_directory dataset_dir) in
    let archive = or_die (Versioning_store.Archive.pack entries) in
    let id = or_die (Repo.commit repo ~message archive) in
    Printf.printf "[%s] version %d (%d files, %d bytes)\n"
      (Repo.current_branch repo)
      id (List.length entries) (String.length archive)
  in
  Cmd.v
    (Cmd.info "commit-dir" ~doc:"Record a directory tree as one version")
    Term.(const run $ repo_dir $ dir_arg $ message)

let checkout_dir_cmd =
  let version =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"VERSION" ~doc:"Version id.")
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run repo_path version out =
    let repo = open_repo repo_path in
    let archive = or_die (Repo.checkout repo version) in
    let entries = or_die (Versioning_store.Archive.unpack archive) in
    or_die (Versioning_store.Archive.to_directory out entries);
    Printf.printf "version %d -> %s (%d files)\n" version out
      (List.length entries)
  in
  Cmd.v
    (Cmd.info "checkout-dir" ~doc:"Reconstruct a directory-tree version")
    Term.(const run $ repo_dir $ version $ out)

(* -- tag / diff / verify -- *)

let tag_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Tag to create (omit to list).")
  in
  let at =
    Arg.(value & opt (some int) None & info [ "at" ] ~docv:"VERSION" ~doc:"Version to tag.")
  in
  let run dir name at =
    let repo = open_repo dir in
    match name with
    | None ->
        List.iter
          (fun (n, v) -> Printf.printf "%s -> version %d\n" n v)
          (Repo.tags repo)
    | Some name ->
        or_die (Repo.tag repo name ?at ());
        Printf.printf "Tagged version %d as %s\n"
          (Option.get (Repo.resolve repo name))
          name
  in
  Cmd.v
    (Cmd.info "tag" ~doc:"List tags or create one")
    Term.(const run $ repo_dir $ name_arg $ at)

let diff_cmd =
  let from_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FROM" ~doc:"Version, tag or branch.")
  in
  let to_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TO" ~doc:"Version, tag or branch.")
  in
  let run dir from_name to_name =
    let repo = open_repo dir in
    let resolve name =
      match Repo.resolve repo name with
      | Some v -> v
      | None ->
          Printf.eprintf "dsvc: cannot resolve %s\n" name;
          exit 1
    in
    print_string (or_die (Repo.diff repo (resolve from_name) (resolve to_name)))
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Show the delta between two versions")
    Term.(const run $ repo_dir $ from_arg $ to_arg)

let verify_cmd =
  let run dir =
    let repo = open_repo dir in
    match Repo.verify repo with
    | Ok () -> print_endline "repository is consistent"
    | Error problems ->
        List.iter (Printf.eprintf "dsvc: %s\n") problems;
        exit 1
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Check repository integrity")
    Term.(const run $ repo_dir)

(* Cluster flags: a comma-separated endpoint list (serve, fsck and
   remote, each with its own meaning), the replication factor, and
   this node's own ring name (host:port as peers address it; defaults
   to the bind address). *)
let peers_arg ~doc =
  Arg.(
    value
    & opt (list ~sep:',' string) []
    & info [ "peers" ] ~docv:"HOST:PORT,..." ~doc)

let replicas_arg =
  Arg.(
    value & opt int 2
    & info [ "replicas" ] ~docv:"R"
        ~doc:"Copies of every blob across the cluster (cluster mode).")

let self_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "self" ] ~docv:"HOST:PORT"
        ~doc:
          "This node's name on the ring, as the peers address it \
           (default: the bind host:port). All nodes must agree on the \
           member list or ring epochs diverge.")

(* The node's local shard plus the replicated quorum view over it —
   what cluster serve plugs into the repo and fsck checks against. *)
let build_cluster ~dir ~self ~peers ~replicas =
  let module VS = Versioning_store in
  let local_store =
    or_die (VS.Object_store.create ~dir:(Repo.objects_dir dir))
  in
  let peer_clients =
    List.map
      (fun ep ->
        let host, port = or_die (VS.Client.parse_endpoint ep) in
        let c = VS.Client.connect ~timeout:5.0 ~retries:2 ~host ~port () in
        (VS.Client.endpoint c, c))
      peers
  in
  let replicated =
    VS.Replicated.create ~replicas ~self
      ~self_backend:(VS.Object_store.backend local_store)
      ~peers:(List.map (fun (n, c) -> (n, VS.Client.backend c)) peer_clients)
      ()
  in
  { VS.Server.local_store; replicated; peer_clients }

let fsck_cmd =
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Attempt recovery: restore metadata from backup, quarantine \
             corrupt objects, re-materialize versions with broken delta \
             chains, and resolve any interrupted optimize.")
  in
  let run dir repair peers replicas self =
    let result =
      if peers = [] then or_die (Repo.fsck ~path:dir ~repair)
      else begin
        (* Cluster fsck: check against the replicated view, so blobs
           this node holds only remotely (its peers' shards) count as
           present. The node must not be serving (repo lock). *)
        let self =
          match self with
          | Some s -> s
          | None ->
              Printf.eprintf "dsvc: fsck --peers requires --self\n";
              exit 2
        in
        let cluster = build_cluster ~dir ~self ~peers ~replicas in
        let store =
          Versioning_store.Object_store.of_backend
            (Versioning_store.Replicated.backend
               cluster.Versioning_store.Server.replicated)
        in
        or_die (Repo.fsck_with ~store ~path:dir ~repair)
      end
    in
    List.iter (Printf.printf "fsck: %s\n") result.Repo.actions;
    match result.Repo.problems with
    | [] -> print_endline "repository is consistent"
    | problems ->
        List.iter (Printf.eprintf "dsvc: %s\n") problems;
        if repair then
          Printf.eprintf "dsvc: repair could not fix every problem\n"
        else
          Printf.eprintf "dsvc: run `dsvc fsck --repair` to attempt recovery\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Check repository integrity and optionally repair damage")
    Term.(
      const run $ repo_dir $ repair
      $ peers_arg
          ~doc:
            "Check this node as a member of a cluster with these peers \
             (host:port, comma separated): blobs only its peers hold \
             count as present. Needs --self, and the node must not be \
             serving. Without it, only the local repository is checked."
      $ replicas_arg $ self_arg)

(* -- stats -- *)

let print_stats (s : Repo.stats) =
  Printf.printf "versions:        %d\n" s.n_versions;
  Printf.printf "materialized:    %d\n" s.n_full;
  Printf.printf "delta-stored:    %d\n" s.n_delta;
  Printf.printf "storage bytes:   %d\n" s.storage_bytes;
  Printf.printf "longest chain:   %d deltas\n" s.max_chain;
  Printf.printf "sum recreation:  %.0f bytes\n" s.sum_recreation_bytes;
  Printf.printf "max recreation:  %.0f bytes\n" s.max_recreation_bytes

let stats_cmd =
  let run dir =
    let repo = open_repo dir in
    print_stats (Repo.stats repo)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show storage/recreation statistics")
    Term.(const run $ repo_dir)

(* -- serve -- *)

let serve_cmd =
  let port =
    Arg.(value & opt int 8077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Bind address.")
  in
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N" ~doc:"Stop after N requests (for scripting/tests).")
  in
  let run dir port host max_requests peers replicas self =
    (* Access-log lines (one per request, with request/trace id) are
       emitted at Info. *)
    Logs.set_level (Some Logs.Info);
    if peers = [] then begin
      let repo = open_repo dir in
      or_die (Versioning_store.Server.serve repo ~port ~host ?max_requests ())
    end
    else begin
      let self =
        match self with
        | Some s -> s
        | None -> Printf.sprintf "%s:%d" host port
      in
      let cluster = build_cluster ~dir ~self ~peers ~replicas in
      let store =
        Versioning_store.Object_store.of_backend
          (Versioning_store.Replicated.backend
             cluster.Versioning_store.Server.replicated)
      in
      let repo = or_die (Repo.open_with ~store ~path:dir) in
      or_die
        (Versioning_store.Server.serve ~cluster repo ~port ~host ?max_requests
           ())
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the repository over HTTP (the paper's client-server mode)")
    Term.(
      const run $ repo_dir $ port $ host $ max_requests
      $ peers_arg
          ~doc:
            "Run as a cluster node replicating blobs to these peers \
             (host:port, comma separated). Without it, single-node \
             behaviour is unchanged."
      $ replicas_arg $ self_arg)

(* -- export-graph -- *)

let export_graph_cmd =
  let output =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output path for the dsvc-graph file.")
  in
  let hops =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"N" ~doc:"Reveal deltas within N hops.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Write Graphviz DOT instead of the dsvc-graph format.")
  in
  let run dir output hops dot =
    let repo = open_repo dir in
    let g, _ = or_die (Repo.reveal_graph repo ~max_hops:hops ()) in
    if dot then begin
      or_die (Fsutil.write_file output (Versioning_core.Dot.of_aux_graph g));
      Printf.printf "wrote DOT graph to %s\n" output
    end
    else begin
      or_die (Versioning_core.Graph_io.save g ~path:output);
      Printf.printf
        "wrote %d-version instance (%d edges) to %s\n"
        (Versioning_core.Aux_graph.n_versions g)
        (Versioning_graph.Digraph.n_edges (Versioning_core.Aux_graph.graph g))
        output
    end
  in
  Cmd.v
    (Cmd.info "export-graph"
       ~doc:"Export the repository's revealed cost graph for offline analysis")
    Term.(const run $ repo_dir $ output $ hops $ dot)

(* -- optimize -- *)

let optimize_cmd =
  let strategy =
    let module Server = Versioning_store.Server in
    let parse s = Result.map_error (fun e -> `Msg e) (Server.parse_strategy s) in
    let pp ppf s = Format.pp_print_string ppf (Server.strategy_to_string s) in
    Arg.conv (parse, pp)
  in
  let strat =
    Arg.(
      value
      & opt strategy (Repo.Budgeted_sum 1.5)
      & info [ "s"; "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Storage plan: min-storage (MCA), min-recreation (SPT), \
             balanced=F (LMG, budget F x minimum), bounded-max=F (MP, \
             bound F x optimum), git (GitH), svn (skip-deltas).")
  in
  let hops =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"N" ~doc:"Reveal deltas within N hops.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Versioning_util.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the diff/re-plan phases (default the \
             DSVC_JOBS environment variable, or 1). The resulting plan is \
             identical for every N.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-solutions" ]
          ~doc:
            "Independently verify the solver's plan (spanning \
             arborescence over revealed edges, Lemma 1 cost \
             accounting) before rewriting any object; refuse to \
             optimize if verification fails.")
  in
  let weights =
    let conv_weights s =
      match String.lowercase_ascii s with
      | "uniform" -> Ok Repo.Uniform
      | "observed" -> Ok Repo.Observed
      | _ -> Error (`Msg "expected uniform | observed")
    in
    let pp ppf = function
      | Repo.Uniform -> Format.fprintf ppf "uniform"
      | Repo.Observed -> Format.fprintf ppf "observed"
    in
    Arg.(
      value
      & opt (Arg.conv (conv_weights, pp)) Repo.Uniform
      & info [ "weights" ] ~docv:"MODE"
          ~doc:
            "Version weighting for the balanced (LMG) strategy: uniform \
             (every version equally likely — the paper's default model) \
             or observed (the telemetry ledger's decayed access \
             frequencies weight each version's recreation cost, the \
             workload-aware objective of the paper's Figure 16). With an \
             empty ledger or any other strategy, observed falls back to \
             the uniform plan.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print a per-phase time/allocation breakdown (graph \
             construction, solve, materialization, ...) after the \
             repack. Implies observability for this run; the chosen \
             plan is unaffected.")
  in
  let print_profile aggs =
    if aggs = [] then print_endline "profile: no spans recorded"
    else begin
      Printf.printf "%-30s %7s %11s %11s %12s\n" "phase" "count" "total (s)"
        "mean (ms)" "alloc (MB)";
      List.iter
        (fun (a : Trace.agg) ->
          Printf.printf "%-30s %7d %11.4f %11.3f %12.2f\n" a.Trace.agg_name
            a.Trace.count a.Trace.total_s
            (1000.0 *. a.Trace.total_s /. float_of_int (max 1 a.Trace.count))
            (a.Trace.total_alloc /. 1048576.0))
        aggs
    end
  in
  let run dir strat hops jobs check weights profile =
    let repo = open_repo dir in
    let work () =
      or_die (Repo.optimize repo ~max_hops:hops ~jobs ~check ~weights strat)
    in
    let stats =
      if profile then
        Obs.with_enabled true (fun () ->
            let stats = work () in
            print_profile (Trace.summarize ());
            print_newline ();
            stats)
      else work ()
    in
    if check then print_endline "solution verified (arborescence + Lemma 1)";
    print_stats stats
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Re-plan version storage with one of the paper's algorithms")
    Term.(const run $ repo_dir $ strat $ hops $ jobs $ check $ weights $ profile)

(* -- advise: read-only re-optimization recommendation -- *)

let advise_cmd =
  let hops =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"N" ~doc:"Reveal deltas within N hops.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Versioning_util.Pool.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains for the reveal phase.")
  in
  let threshold =
    Arg.(
      value & opt float 0.5
      & info [ "threshold" ] ~docv:"D"
          ~doc:
            "Drift score above which a re-plan is worth recommending \
             (0 = workload matches the uniform planning assumption).")
  in
  let k =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many mispriced versions to list.")
  in
  let run dir hops jobs threshold k =
    let repo = open_repo dir in
    let (a : Repo.advice) =
      or_die (Repo.advise repo ~max_hops:hops ~jobs ~threshold ~k ())
    in
    Printf.printf "drift %.3f (threshold %.2f, %d ledger accesses)\n" a.a_drift
      a.a_threshold a.a_events;
    if a.a_top <> [] then begin
      print_newline ();
      Printf.printf "%-8s %8s %14s %16s\n" "version" "share" "phi (bytes)"
        "drift term";
      List.iter
        (fun (d : Repo.drifted) ->
          Printf.printf "%-8d %7.1f%% %14.0f %16.0f\n" d.d_version
            (100.0 *. d.d_share) d.d_phi d.d_contribution)
        a.a_top;
      print_newline ()
    end;
    Printf.printf
      "weighted recreation: current plan %.0f, observed-weight re-plan %.0f \
       (saving %.1f%%)\n"
      a.a_current_weighted a.a_candidate_weighted (100.0 *. a.a_saving);
    if a.a_recommend then
      print_endline
        "recommendation: re-plan for this workload — dsvc optimize \
         --strategy balanced=1.5 --weights observed"
    else print_endline "recommendation: keep the current plan"
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Score workload drift against the current storage plan and say \
          whether an observed-weight re-optimization would pay off \
          (read-only: no object is rewritten)")
    Term.(const run $ repo_dir $ hops $ jobs $ threshold $ k)

(* -- top: the ledger's live text view -- *)

let top_cmd =
  let percentile xs p =
    match xs with
    | [] -> 0.0
    | xs ->
        let a = Array.of_list xs in
        Array.sort compare a;
        let i =
          int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1
        in
        a.(max 0 (min (Array.length a - 1) i))
  in
  let k =
    Arg.(
      value & opt int 10
      & info [ "n" ] ~docv:"K" ~doc:"How many hot versions to show.")
  in
  let run dir k =
    let repo = open_repo dir in
    let t = Repo.telemetry repo in
    if Telemetry.is_empty t then
      print_endline
        "telemetry: ledger is empty — run some checkouts first (observed \
         recreation costs additionally need DSVC_OBS=on)"
    else begin
      let entries = Telemetry.entries t in
      let checkouts =
        List.fold_left (fun n (_, e) -> n + e.Telemetry.checkouts) 0 entries
      in
      let hits =
        List.fold_left (fun n (_, e) -> n + e.Telemetry.cache_hits) 0 entries
      in
      Printf.printf
        "events %d   versions %d   cache-hit %.1f%%   drift %.3f\n\n"
        (Telemetry.events t) (List.length entries)
        (100.0 *. float_of_int hits /. float_of_int (max 1 checkouts))
        (Repo.drift_score repo);
      let phi = Repo.predicted_costs repo in
      let total_freq =
        List.fold_left (fun s (v, _) -> s +. Telemetry.freq_of t v) 0.0 entries
      in
      Printf.printf "%-4s %8s %7s %10s %6s %13s %13s  %s\n" "rank" "version"
        "share" "checkouts" "hits" "obs (bytes)" "pred (bytes)" "trace";
      List.iteri
        (fun i (v, (e : Telemetry.entry)) ->
          let share =
            if total_freq > 0.0 then Telemetry.freq_of t v /. total_freq
            else 0.0
          in
          let obs_mean =
            if e.observations > 0 then
              e.bytes /. float_of_int e.observations
            else 0.0
          in
          Printf.printf "%-4d %8d %6.1f%% %10d %6d %13.0f %13.0f  %s\n"
            (i + 1) v (100.0 *. share) e.checkouts e.cache_hits obs_mean
            (Option.value (List.assoc_opt v phi) ~default:0.0)
            (if e.exemplar = "" then "-" else e.exemplar))
        (Telemetry.hot t ~k);
      match Telemetry.samples t with
      | [] ->
          print_endline
            "\nno recreation samples yet (cost observation needs DSVC_OBS=on)"
      | ss ->
          let col f = List.map f ss in
          let secs = col (fun (s : Telemetry.sample) -> s.s_seconds) in
          let obs = col (fun (s : Telemetry.sample) -> s.s_bytes) in
          let pred = col (fun (s : Telemetry.sample) -> s.s_predicted) in
          Printf.printf
            "\nrecreation over the last %d samples:\n\
            \  wall-clock  p50 %8.3f ms   p99 %8.3f ms\n\
            \  observed    p50 %8.0f B    p99 %8.0f B\n\
            \  predicted   p50 %8.0f B    p99 %8.0f B\n"
            (List.length ss)
            (1000.0 *. percentile secs 0.5)
            (1000.0 *. percentile secs 0.99)
            (percentile obs 0.5) (percentile obs 0.99) (percentile pred 0.5)
            (percentile pred 0.99)
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Show the workload telemetry ledger: hot versions, cache hit \
          ratio, observed vs predicted recreation cost, and the drift \
          score")
    Term.(const run $ repo_dir $ k)

(* -- metrics -- *)

let metrics_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 8077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the JSON exposition instead of Prometheus text.")
  in
  let local =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Print this process's own metric registry instead of \
             querying a server (only interesting under DSVC_OBS=on).")
  in
  let cluster =
    Arg.(
      value & flag
      & info [ "cluster" ]
          ~doc:
            "Scrape GET /metrics/cluster instead: the whole cluster's \
             samples through one node, each labelled with its origin \
             peer.")
  in
  let run host port json local cluster =
    if local then
      print_string
        (if json then Versioning_store.Server.metrics_json_with_meta ()
         else Metrics.to_prometheus ())
    else begin
      let client = Versioning_store.Client.connect ~host ~port () in
      let path = if cluster then "/metrics/cluster" else "/metrics" in
      let query = if json && not cluster then [ ("format", "json") ] else [] in
      match
        Versioning_store.Client.request client ~meth:"GET" ~path ~query ()
      with
      | Ok (200, body) -> print_string body
      | Ok (status, body) ->
          Printf.eprintf "dsvc: server returned %d: %s\n" status body;
          exit 1
      | Error e ->
          Printf.eprintf "dsvc: %s\n" e;
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Fetch a served repository's /metrics exposition")
    Term.(const run $ host $ port $ json $ local $ cluster)

(* -- dash: live cluster-health TUI -- *)

let dash_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 8077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render one frame and exit (no screen clearing) — what \
                scripts and the CI smoke test use.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let run host port once interval =
    let module C = Versioning_store.Client in
    let client = C.connect ~host ~port () in
    let fetch path query =
      match C.request client ~meth:"GET" ~path ~query () with
      | Ok (200, body) -> Some body
      | Ok _ | Error _ -> None
    in
    let lines = function
      | None -> []
      | Some body ->
          String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
    in
    (* One sampled series -> (sparkline of bucket averages, last value).
       GET /timeseries?metric=… lines are `time count avg min max last`. *)
    let series_cell metric =
      match fetch "/timeseries" [ ("metric", metric) ] with
      | None -> None
      | Some body ->
          let values =
            List.filter_map
              (fun l ->
                match String.split_on_char ' ' l with
                | [ _; _; avg; _; _; _ ] -> float_of_string_opt avg
                | _ -> None)
              (lines (Some body))
          in
          if values = [] then None
          else
            Some
              ( Timeseries.sparkline values,
                List.nth values (List.length values - 1) )
    in
    let render () =
      let b = Buffer.create 4096 in
      let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      add "dsvc dash — %s:%d\n\n" host port;
      (match fetch "/health" [] with
      | None -> add "health: UNREACHABLE\n"
      | Some body ->
          add "health:\n";
          List.iter (fun l -> add "  %s\n" l) (lines (Some body)));
      add "\nalerts:\n";
      (match fetch "/alerts" [] with
      | None -> add "  (unavailable)\n"
      | Some body ->
          let ls = lines (Some body) in
          if ls = [] then add "  (none)\n"
          else
            List.iter
              (fun l ->
                let mark =
                  let has needle =
                    let nl = String.length needle and ll = String.length l in
                    let rec go i =
                      i + nl <= ll && (String.sub l i nl = needle || go (i + 1))
                    in
                    go 0
                  in
                  if has " firing" then "!! "
                  else if has " pending" then " ~ "
                  else "   "
                in
                add "  %s%s\n" mark l)
              ls);
      add "\nseries:\n";
      let names =
        match fetch "/timeseries" [] with
        | None -> []
        | Some body -> lines (Some body)
      in
      let interesting n =
        let prefix p =
          String.length n >= String.length p && String.sub n 0 (String.length p) = p
        in
        prefix "sli:" || prefix "dsvc_cluster_hint_queue_depth"
        || prefix "dsvc_cluster_hint_oldest_age_seconds"
      in
      let shown = List.filter interesting names in
      if shown = [] then add "  (no samples yet)\n"
      else
        List.iter
          (fun n ->
            match series_cell n with
            | None -> ()
            | Some (spark, last) -> add "  %-44s %s last=%.4g\n" n spark last)
          shown;
      (match fetch "/metrics/cluster" [] with
      | None -> ()
      | Some body ->
          let ups =
            List.filter_map
              (fun l ->
                let p = "dsvc_cluster_scrape_up{" in
                let pl = String.length p in
                if String.length l > pl && String.sub l 0 pl = p then
                  Some (String.sub l pl (String.length l - pl))
                else None)
              (lines (Some body))
          in
          if ups <> [] then begin
            add "\ncluster scrape:\n";
            List.iter (fun l -> add "  %s\n" l) ups
          end);
      Buffer.contents b
    in
    if once then print_string (render ())
    else begin
      (try
         while true do
           let frame = render () in
           (* clear + home, then the frame: one write per refresh *)
           Printf.printf "\x1b[2J\x1b[H%s%!" frame;
           Unix.sleepf interval
         done
       with Sys.Break -> ());
      print_newline ()
    end
  in
  Cmd.v
    (Cmd.info "dash"
       ~doc:
         "Live cluster-health dashboard over a served repository: \
          sparklines of the sampled SLI series, firing alerts, per-peer \
          replication health, and the cluster-wide scrape-up view")
    Term.(const run $ host $ port $ once $ interval)

(* -- remote (HTTP client) -- *)

let remote_cmd =
  let url_args =
    let host =
      Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
    in
    let port =
      Arg.(value & opt int 8077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
    in
    (host, port)
  in
  let host, port = url_args in
  let action =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ACTION"
          ~doc:"One of: log, checkout NAME [FILE], commit FILE [MSG], stats, optimize STRATEGY, verify, health, anti-entropy.")
  in
  let rest = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS") in
  let peers =
    peers_arg
      ~doc:
        "Fail over across these server endpoints (host:port, comma \
         separated) after --host/--port: a transport error moves the \
         request to the next endpoint. Without it, only --host/--port is \
         tried."
  in
  let run host port action rest peers =
    let module C = Versioning_store.Client in
    (* With --peers the client fails over across the listed endpoints
       (transport errors only); host/port become the first endpoint. *)
    let client =
      if peers = [] then C.connect ~host ~port ()
      else or_die (C.connect_many (Printf.sprintf "%s:%d" host port :: peers))
    in
    let print_fields = List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) in
    match (action, rest) with
    | "log", [] ->
        List.iter
          (fun (id, parents, msg) ->
            Printf.printf "version %d  <- %s\n    %s\n" id
              (match parents with
              | [] -> "(root)"
              | ps -> String.concat ", " (List.map string_of_int ps))
              (if msg = "" then "(no message)" else msg))
          (or_die (C.versions client))
    | "checkout", [ name ] -> print_string (or_die (C.checkout client name))
    | "checkout", [ name; file ] ->
        let content = or_die (C.checkout client name) in
        or_die (Fsutil.write_file file content);
        Printf.printf "%s -> %s (%d bytes)\n" name file (String.length content)
    | "commit", (file :: msg_parts) ->
        let content = or_die (read_file file) in
        let message = String.concat " " msg_parts in
        let id = or_die (C.commit client ~message content) in
        Printf.printf "committed as version %d\n" id
    | "stats", [] -> print_fields (or_die (C.stats client))
    | "optimize", [ strategy ] ->
        print_fields (or_die (C.optimize client strategy))
    | "verify", [] ->
        or_die (C.verify client);
        print_endline "remote repository is consistent"
    | "health", [] -> print_fields (or_die (C.health client))
    | "anti-entropy", [] -> print_fields (or_die (C.anti_entropy client))
    | _ ->
        Printf.eprintf "dsvc remote: unknown action %s %s\n" action
          (String.concat " " rest);
        exit 1
  in
  Cmd.v
    (Cmd.info "remote" ~doc:"Operate on a served repository over HTTP")
    Term.(const run $ host $ port $ action $ rest $ peers)

(* -- trace (run any subcommand traced) -- *)

(* lint: mutable-ok forward reference to the assembled command group,
   set once in [main] below so `dsvc trace` can re-enter the
   evaluator; never written again *)
let main_eval : (string array -> int) ref =
  ref (fun _ -> invalid_arg "dsvc: evaluator not initialized")

let print_span_tree spans =
  let module Ids = Set.Make (Int) in
  let ids =
    List.fold_left (fun s (sp : Trace.span) -> Ids.add sp.id s) Ids.empty spans
  in
  let by_start a b = compare a.Trace.start b.Trace.start in
  let children id =
    List.sort by_start
      (List.filter (fun (sp : Trace.span) -> sp.parent = Some id) spans)
  in
  (* Roots: no parent, or a parent that fell off the bounded ring. *)
  let roots =
    List.sort by_start
      (List.filter
         (fun (sp : Trace.span) ->
           match sp.parent with None -> true | Some p -> not (Ids.mem p ids))
         spans)
  in
  let rec print depth (sp : Trace.span) =
    Printf.printf "%s%-*s %9.3fms  %8.1fKB\n"
      (String.make (2 * depth) ' ')
      (max 1 (32 - (2 * depth)))
      sp.name (1000.0 *. sp.dur) (sp.alloc /. 1024.0);
    List.iter (print (depth + 1)) (children sp.id)
  in
  List.iter (print 0) roots

let trace_cmd =
  let rest =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMD"
          ~doc:
            "Subcommand to run traced, e.g. `dsvc trace optimize -- -s git`. \
             Put `--` before the subcommand's own flags.")
  in
  let run rest =
    match rest with
    | [] ->
        Printf.eprintf
          "dsvc trace: expected a subcommand to run, e.g. `dsvc trace \
           optimize -- -s git`\n";
        exit 124
    | "trace" :: _ ->
        Printf.eprintf "dsvc trace: cannot nest trace inside trace\n";
        exit 124
    | rest ->
        Obs.enable ();
        let ctx = Context.make ~sampled:true () in
        let code =
          Context.with_context ctx (fun () ->
              Trace.with_span "cli" (fun () ->
                  !main_eval (Array.of_list ("dsvc" :: rest))))
        in
        Printf.printf "\ntrace %s (request %s)\n" ctx.Context.trace_id
          ctx.Context.request_id;
        print_span_tree (Trace.spans ());
        if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run any dsvc subcommand with tracing forced on and print its span \
          tree (DSVC_TRACE=FILE additionally writes Chrome trace JSON)")
    Term.(const run $ rest)

(* -- flight-dump -- *)

let flight_dump_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let port =
    Arg.(value & opt int 8077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write to FILE ('-' for stdout) instead of the default \
             DSVC_FLIGHT_PATH destination.")
  in
  let local =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Dump this process's own flight ring instead of querying a \
             server (mostly useful from tests/scripts).")
  in
  let run host port output local =
    let body =
      if local then Flight.to_json ()
      else begin
        let client = Versioning_store.Client.connect ~host ~port () in
        match
          Versioning_store.Client.request client ~meth:"GET" ~path:"/flight" ()
        with
        | Ok (200, body) -> body
        | Ok (status, body) ->
            Printf.eprintf "dsvc: server returned %d: %s\n" status body;
            exit 1
        | Error e ->
            Printf.eprintf "dsvc: %s\n" e;
            exit 1
      end
    in
    match output with
    | Some "-" -> print_string body
    | Some path ->
        or_die (Fsutil.write_file path body);
        Printf.printf "wrote flight record to %s\n" path
    | None ->
        let path = Flight.default_path () in
        or_die (Fsutil.write_file path body);
        Printf.printf "wrote flight record to %s\n" path
  in
  Cmd.v
    (Cmd.info "flight-dump"
       ~doc:
         "Dump the always-on flight recorder (a served repository's via \
          GET /flight, or this process's with --local)")
    Term.(const run $ host $ port $ output $ local)

let lint_cmd =
  let paths =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to scan (default: lib bin bench test \
             tools, whichever exist).")
  in
  let config =
    Arg.(
      value
      & opt (some string) None
      & info [ "config" ] ~docv:"FILE"
          ~doc:"Lint configuration (default: ./lint.toml when present).")
  in
  let format =
    Arg.(
      value & opt string "text"
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,text), $(b,json), or $(b,github) (CI \
             ::error annotations).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:"Also write the JSON report to FILE.")
  in
  let run paths config format json_out =
    let format =
      match Dsvc_lint.Lint_report.format_of_string format with
      | Some f -> f
      | None ->
          Printf.eprintf "dsvc: unknown lint format %S\n" format;
          exit 2
    in
    let paths =
      match paths with
      | [] ->
          List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test"; "tools" ]
      | ps -> ps
    in
    exit
      (Dsvc_lint.Lint_driver.run
         {
           Dsvc_lint.Lint_driver.config_path = config;
           format;
           json_out;
           paths;
         })
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run dsvc-lint, the repository's static invariant checker \
          (R1-R9: write confinement, unsafe indexing, domain spawns, \
          swallowed exceptions, nondeterminism, shared mutable state, \
          reactor blocking, lock discipline). Exit 0 when clean, 1 when \
          findings were reported, 2 on usage or configuration errors.")
    Term.(const run $ paths $ config $ format $ json_out)

let () =
  (* Correlated logging for every subcommand: retry warnings, fault
     injections, journal recovery etc. are stamped with the active
     request/trace id and mirrored into the flight ring. *)
  Logctx.install ();
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      Printf.eprintf "dsvc: fatal: %s\n%s" (Printexc.to_string exn)
        (Printexc.raw_backtrace_to_string bt);
      dump_flight ~reason:"crash");
  at_exit dump_trace;
  let info =
    Cmd.info "dsvc" ~version:"1.0.0"
      ~doc:"Dataset version control with a principled storage/recreation tradeoff"
  in
  let group =
    Cmd.group info
      [
        init_cmd;
        commit_cmd;
        checkout_cmd;
        commit_dir_cmd;
        checkout_dir_cmd;
        log_cmd;
        branch_cmd;
        switch_cmd;
        tag_cmd;
        diff_cmd;
        verify_cmd;
        fsck_cmd;
        stats_cmd;
        export_graph_cmd;
        serve_cmd;
        metrics_cmd;
        dash_cmd;
        remote_cmd;
        optimize_cmd;
        advise_cmd;
        top_cmd;
        trace_cmd;
        flight_dump_cmd;
        lint_cmd;
      ]
  in
  main_eval := (fun argv -> Cmd.eval ~argv group);
  exit (Cmd.eval group)
