(* Workload telemetry (DESIGN.md §15): ledger persistence roundtrip,
   merge commutativity, fault injection at the ledger write site, the
   shared env-knob parser, and the end-to-end drift demo — a skewed
   workload pushes the drift score past the threshold, [advise]
   recommends a re-plan, and optimizing with observed weights strictly
   lowers the access-weighted recreation cost while staying
   Solution_check-valid ([optimize ~check] re-verifies the plan before
   rewriting anything). *)

open Versioning_store
module Obs = Versioning_obs.Obs
module Telemetry = Versioning_obs.Telemetry
module Faults = Versioning_util.Faults
module Prng = Versioning_util.Prng

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let temp_dir () =
  let path = Filename.temp_file "dsvc_tel" "" in
  Sys.remove path;
  path

(* ---- ledger generators ---- *)

type op = Bump of int * bool | Observe of int * int * int

let apply_op t = function
  | Bump (v, cached) -> Telemetry.bump_checkout t v ~cached
  | Observe (v, ms, bytes) ->
      Telemetry.bump_checkout t v ~cached:false;
      Telemetry.record_recreation t v
        ~seconds:(float_of_int ms /. 1000.0)
        ~bytes:(float_of_int bytes)
        ~predicted:(float_of_int ((bytes / 2) + 1))
        ~trace:(Printf.sprintf "t-%d" v) ()

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun v c -> Bump (v, c)) (int_range 1 40) bool);
        ( 1,
          map2
            (fun v (ms, bytes) -> Observe (v, ms, bytes))
            (int_range 1 40)
            (pair (int_range 0 5000) (int_range 0 100_000)) );
      ])

(* Small bounds so generation also exercises entry eviction and the
   sample-ring cap. *)
let ledger_of_ops ops =
  let t = Telemetry.create ~max_entries:16 ~ring:8 () in
  List.iter (apply_op t) ops;
  t

let gen_ledger = QCheck.Gen.(map ledger_of_ops (list_size (int_range 0 120) gen_op))

let arb_ledger = QCheck.make ~print:Telemetry.render gen_ledger

let qcheck_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse∘render ≡ id (hex floats)"
    arb_ledger (fun t ->
      match Telemetry.parse (Telemetry.render t) with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e
      | Ok t' -> Telemetry.render t' = Telemetry.render t)

let qcheck_merge_commutes =
  QCheck.Test.make ~count:200 ~name:"merge commutes (byte-identical)"
    (QCheck.pair arb_ledger arb_ledger)
    (fun (a, b) ->
      Telemetry.render (Telemetry.merge a b)
      = Telemetry.render (Telemetry.merge b a))

let qcheck_merge_conserves =
  QCheck.Test.make ~count:200 ~name:"merge conserves events and checkouts"
    (QCheck.pair arb_ledger arb_ledger)
    (fun (a, b) ->
      let total t =
        List.fold_left
          (fun n (_, e) -> n + e.Telemetry.checkouts)
          0 (Telemetry.entries t)
      in
      let m = Telemetry.merge a b in
      Telemetry.events m = Telemetry.events a + Telemetry.events b
      (* entry eviction may drop cold versions, never invent them *)
      && total m <= total a + total b)

(* ---- bounded ledger behaviour ---- *)

let test_hot_and_eviction () =
  let t = Telemetry.create ~max_entries:4 ~ring:4 () in
  for v = 1 to 6 do
    for _ = 1 to v do
      Telemetry.bump_checkout t v ~cached:false
    done
  done;
  Alcotest.(check int) "entry count bounded" 4
    (List.length (Telemetry.entries t));
  (match Telemetry.hot t ~k:1 with
  | [ (6, _) ] -> ()
  | l ->
      Alcotest.failf "hottest should be version 6, got %s"
        (String.concat "," (List.map (fun (v, _) -> string_of_int v) l)));
  Alcotest.(check int) "events count every access" 21 (Telemetry.events t)

(* ---- the shared env parser (satellite: DSVC_* integer knobs) ---- *)

let test_env_int () =
  let name = "DSVC_TEST_ENV_INT" in
  let get ?max () = Obs.env_int name ?max ~default:7 in
  Unix.putenv name "";
  Alcotest.(check int) "blank -> default" 7 (get ());
  Unix.putenv name "12";
  Alcotest.(check int) "valid value" 12 (get ());
  Unix.putenv name "  12  ";
  Alcotest.(check int) "whitespace tolerated" 12 (get ());
  Unix.putenv name "garbage";
  Alcotest.(check int) "garbage -> default" 7 (get ());
  Unix.putenv name "0";
  Alcotest.(check int) "zero below default min -> default" 7 (get ());
  Unix.putenv name "-3";
  Alcotest.(check int) "negative -> default" 7 (get ());
  Unix.putenv name "99";
  Alcotest.(check int) "above max -> default" 7 (get ~max:50 ());
  Unix.putenv name "50";
  Alcotest.(check int) "at max accepted" 50 (get ~max:50 ());
  Unix.putenv name "0";
  Alcotest.(check int) "min:0 admits zero" 0
    (Obs.env_int name ~min:0 ~default:7);
  Unix.putenv name ""

(* The env readers as the CLI sees them, in a child [dsvc] whose
   environment is exactly [env] plus PATH. Returns the exit code,
   stdout and stderr. *)
let run_dsvc ~env args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dsvc.exe"
  in
  let out = Filename.temp_file "dsvc_out" "" in
  let err = Filename.temp_file "dsvc_err" "" in
  let open_w path =
    (* lint: raw-write-ok throwaway capture of a child's stdout/stderr,
       read straight back and deleted *)
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644
  in
  let fd_out = open_w out and fd_err = open_w err in
  let path = Option.value (Sys.getenv_opt "PATH") ~default:"" in
  let env = Array.of_list (("PATH=" ^ path) :: env) in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin
      fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _ -> Alcotest.fail "dsvc died on a signal"
  in
  let slurp path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  (code, slurp out, slurp err)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_env_readers () =
  (* a blank DSVC_OBS counts as unset, so DSVC_TRACE still traces *)
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  ignore (ok (Repo.commit repo ~message:"a" "x\ny\n"));
  ignore (ok (Repo.commit repo ~message:"b" "x\ny\nz\n"));
  Repo.close repo;
  let trace = Filename.concat dir "t.json" in
  let code, _, _ =
    run_dsvc
      ~env:[ "DSVC_OBS="; "DSVC_TRACE=" ^ trace ]
      [ "optimize"; "-C"; dir; "-s"; "min-storage" ]
  in
  Alcotest.(check int) "optimize exits 0" 0 code;
  Alcotest.(check bool) "trace written" true (Sys.file_exists trace);
  Alcotest.(check bool) "trace has spans" true
    (contains
       (In_channel.with_open_bin trace In_channel.input_all)
       {|"ph":"X"|});
  ignore (Sys.command ("rm -rf " ^ Filename.quote dir));
  (* DSVC_JOBS goes through env_int: garbage or zero complains once and
     runs 1 job; a large value is capped at 128 *)
  let jobs_default value =
    let code, out, err =
      run_dsvc ~env:[ "DSVC_JOBS=" ^ value ] [ "optimize"; "--help=plain" ]
    in
    Alcotest.(check int) ("help exits 0 with DSVC_JOBS=" ^ value) 0 code;
    let lines = List.filter (( <> ) "") (String.split_on_char '\n' err) in
    let absent =
      List.find_map
        (fun n ->
          if contains out (Printf.sprintf "--jobs=N (absent=%d)" n) then Some n
          else None)
        [ 1; 3; 128 ]
    in
    (lines, absent)
  in
  List.iter
    (fun value ->
      match jobs_default value with
      | [ line ], Some 1 ->
          Alcotest.(check bool) ("stderr names DSVC_JOBS for " ^ value) true
            (contains line "DSVC_JOBS")
      | lines, absent ->
          Alcotest.failf "DSVC_JOBS=%s: %d stderr lines, default %s" value
            (List.length lines)
            (Option.fold ~none:"?" ~some:string_of_int absent))
    [ "two"; "0" ];
  Alcotest.(check (pair (list string) (option int))) "valid value" ([], Some 3)
    (jobs_default "3");
  Alcotest.(check (pair (list string) (option int))) "large value capped"
    ([], Some 128) (jobs_default "500");
  (* --peers means a failover list to remote, replication peers to
     serve, and the peers to check against to fsck *)
  let help cmd =
    let code, out, _ = run_dsvc ~env:[] [ cmd; "--help=plain" ] in
    Alcotest.(check int) (cmd ^ " --help exits 0") 0 code;
    out
  in
  let remote = help "remote" in
  Alcotest.(check bool) "remote --peers is the failover list" true
    (contains remote "Fail over across");
  Alcotest.(check bool) "remote --peers is not a cluster node" false
    (contains remote "Run as a cluster node");
  Alcotest.(check bool) "serve --peers keeps its doc" true
    (contains (help "serve") "Run as a cluster node");
  Alcotest.(check bool) "fsck --peers names the check" true
    (contains (help "fsck") "only its peers")

(* ---- persistence through Repo ---- *)

let test_persistence_across_sessions () =
  let dir = temp_dir () in
  (let repo = ok (Repo.init ~path:dir) in
   let _ = ok (Repo.commit repo ~message:"a" "alpha\n") in
   let _ = ok (Repo.commit repo ~message:"b" "alpha\nbeta\n") in
   Obs.with_enabled true (fun () ->
       for _ = 1 to 3 do
         ignore (ok (Repo.checkout repo 1))
       done;
       Repo.close repo));
  (* second session merges the on-disk ledger, adds more accesses *)
  (let repo = ok (Repo.open_repo ~path:dir) in
   Obs.with_enabled true (fun () ->
       for _ = 1 to 2 do
         ignore (ok (Repo.checkout repo 1))
       done;
       ignore (ok (Repo.checkout repo 2));
       Repo.close repo));
  let repo = ok (Repo.open_repo ~path:dir) in
  let t = Repo.telemetry repo in
  let checkouts v =
    match Telemetry.entry t v with
    | Some e -> e.Telemetry.checkouts
    | None -> 0
  in
  Alcotest.(check int) "checkouts accumulate across sessions" 5 (checkouts 1);
  Alcotest.(check int) "second version counted too" 1 (checkouts 2);
  Alcotest.(check int) "events accumulate" 6 (Telemetry.events t);
  Repo.close repo

let test_save_fault_injected () =
  Faults.reset ();
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let _ = ok (Repo.commit repo ~message:"a" "alpha\n") in
  let _ = ok (Repo.commit repo ~message:"b" "alpha\nbeta\n") in
  Obs.with_enabled true (fun () ->
      ignore (ok (Repo.checkout repo 2));
      Faults.arm ~site:"telemetry.save" (Faults.Fail "injected: disk full");
      (match Repo.flush_ledgers repo with
      | Ok () -> Alcotest.fail "flush must surface the injected failure"
      | Error _ -> ());
      (* a failed flush must not corrupt anything: no ledger file, and
         the repo itself still works *)
      Faults.reset ();
      ignore (ok (Repo.checkout repo 1));
      ok (Repo.flush_ledgers repo));
  Repo.close repo;
  let repo2 = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check bool) "ledger persisted after the fault cleared" false
    (Telemetry.is_empty (Repo.telemetry repo2));
  (match Repo.verify repo2 with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "repo must still verify: %s" (String.concat "; " problems));
  Repo.close repo2

let test_corrupt_ledger_ignored () =
  let dir = temp_dir () in
  (let repo = ok (Repo.init ~path:dir) in
   let _ = ok (Repo.commit repo ~message:"a" "alpha\n") in
   Obs.with_enabled true (fun () ->
       ignore (ok (Repo.checkout repo 1));
       Repo.close repo));
  let ledger = Filename.concat (Filename.concat dir ".dsvc") "telemetry" in
  (* lint: raw-write-ok deliberately clobbering the ledger with garbage *)
  let oc = open_out_bin ledger in
  output_string oc "telemetry 1\nnot a ledger\n";
  close_out oc;
  (* a corrupt ledger is an observation casualty, never an open error *)
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check bool) "corrupt ledger ignored, repo opens" true
    (Telemetry.is_empty (Repo.telemetry repo));
  Repo.close repo

(* ---- planning isolation and the drift demo ---- *)

(* A 20-version linear history of small line mutations over a ~400
   line file: enough structure that LMG has real materialize-or-delta
   choices under a 1.5x budget. *)
let mk_history dir n =
  let repo = ok (Repo.init ~path:dir) in
  let rng = Prng.create ~seed:7 in
  let lines =
    Array.init 400 (fun i ->
        Printf.sprintf "line %d %d" i (Prng.int rng 1_000_000_000))
  in
  for _v = 1 to n do
    for _ = 1 to 12 do
      lines.(Prng.int rng (Array.length lines)) <-
        Printf.sprintf "line mut %d" (Prng.int rng 1_000_000_000)
    done;
    ignore
      (ok
         (Repo.commit repo ~message:"v"
            (String.concat "\n" (Array.to_list lines) ^ "\n")))
  done;
  repo

let test_ledger_never_feeds_uniform_plans () =
  let dir = temp_dir () in
  let repo = mk_history dir 12 in
  let _ = ok (Repo.optimize repo (Repo.Budgeted_sum 1.5)) in
  let plan0 = Repo.storage_parents repo in
  (* hammer the ledger with a skewed workload, gate off and on *)
  for _ = 1 to 25 do
    ignore (ok (Repo.checkout repo 2))
  done;
  Obs.with_enabled true (fun () ->
      for _ = 1 to 25 do
        ignore (ok (Repo.checkout repo 2))
      done);
  let _ = ok (Repo.optimize repo (Repo.Budgeted_sum 1.5)) in
  Alcotest.(check bool) "uniform plan identical under a hot ledger" true
    (Repo.storage_parents repo = plan0);
  Repo.close repo

let weighted freqs costs =
  List.fold_left (fun acc (v, phi) -> acc +. (freqs.(v) *. phi)) 0.0 costs

let test_drift_demo () =
  let dir = temp_dir () in
  let repo = mk_history dir 20 in
  let _ = ok (Repo.optimize repo ~check:true (Repo.Budgeted_sum 1.5)) in
  (* skewed workload: one deep version takes ~85% of the accesses *)
  Obs.with_enabled true (fun () ->
      for _ = 1 to 30 do
        ignore (ok (Repo.checkout repo 3))
      done;
      for _ = 1 to 5 do
        ignore (ok (Repo.checkout repo 20))
      done);
  let drift = Repo.drift_score repo in
  Alcotest.(check bool)
    (Printf.sprintf "drift %.3f exceeds the 0.5 threshold" drift)
    true (drift > 0.5);
  let (a : Repo.advice) = ok (Repo.advise repo ()) in
  Alcotest.(check bool) "advise recommends a re-plan" true a.a_recommend;
  Alcotest.(check bool) "candidate strictly cheaper" true
    (a.a_candidate_weighted < a.a_current_weighted);
  (match a.a_top with
  | { Repo.d_version = 3; _ } :: _ -> ()
  | l ->
      Alcotest.failf "hot mispriced version should lead a_top, got [%s]"
        (String.concat ";"
           (List.map (fun d -> string_of_int d.Repo.d_version) l)));
  (* re-plan under observed weights: the plan must stay checker-valid
     (optimize ~check) and strictly lower the access-weighted cost *)
  let freqs =
    match Repo.observed_freqs repo with
    | Some f -> f
    | None -> Alcotest.fail "populated ledger must yield freqs"
  in
  let uniform_plan = Repo.predicted_costs repo in
  let _ =
    ok
      (Repo.optimize repo ~check:true ~weights:Repo.Observed
         (Repo.Budgeted_sum 1.5))
  in
  let observed_plan = Repo.predicted_costs repo in
  let wu = weighted freqs uniform_plan in
  let wo = weighted freqs observed_plan in
  Alcotest.(check bool)
    (Printf.sprintf "observed-weight plan cheaper for the workload (%.0f < %.0f)"
       wo wu)
    true (wo < wu);
  (* the gauges reach the registry once exported *)
  Obs.with_enabled true (fun () -> Repo.export_telemetry repo);
  let exposition = Versioning_obs.Metrics.to_prometheus () in
  let mem needle =
    let nl = String.length needle and el = String.length exposition in
    let rec go i =
      i + nl <= el && (String.sub exposition i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "drift gauge exported" true
    (mem "dsvc_store_drift_score");
  Alcotest.(check bool) "ledger gauges exported" true
    (mem "dsvc_obs_ledger_events");
  Repo.close repo

let suite =
  [
    Alcotest.test_case "hot ranking and eviction bound" `Quick
      test_hot_and_eviction;
    Alcotest.test_case "env_int validates DSVC_* knobs" `Quick test_env_int;
    Alcotest.test_case "blank DSVC_OBS, garbage DSVC_JOBS" `Quick
      test_env_readers;
    Alcotest.test_case "ledger persists and merges across sessions" `Quick
      test_persistence_across_sessions;
    Alcotest.test_case "injected fault at telemetry.save" `Quick
      test_save_fault_injected;
    Alcotest.test_case "corrupt ledger never blocks open" `Quick
      test_corrupt_ledger_ignored;
    Alcotest.test_case "uniform plans ignore the ledger" `Slow
      test_ledger_never_feeds_uniform_plans;
    Alcotest.test_case "drift demo: skew, advise, observed re-plan" `Slow
      test_drift_demo;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_merge_commutes;
    QCheck_alcotest.to_alcotest qcheck_merge_conserves;
  ]
