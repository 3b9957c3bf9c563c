(* Group commit: optimize and multi-entry imports stage their objects
   unsynced, sync once, rename, and sync again before the journal.
   These cases pin the crash-safety half of that: nothing is ever
   addressable at its digest path before its bytes are durable, every
   failure leaves the repository as it was (plus temp files that [gc]
   removes), and a retry after a torn write reads back byte-identical. *)

open Versioning_store
module Faults = Versioning_util.Faults
module Fsutil = Versioning_util.Fsutil

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e
let ( let* ) = Result.bind

let temp_dir () =
  let path = Filename.temp_file "dsvc_group" "" in
  Sys.remove path;
  path

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let read_file p = ok (Fsutil.read_file p)
let meta_path dir = Filename.concat (Filename.concat dir ".dsvc") "meta"
let journal_path dir = Filename.concat (Filename.concat dir ".dsvc") "journal"

(* The metadata's storage map, as its sorted [stored] lines. *)
let stored_lines dir =
  String.split_on_char '\n' (read_file (meta_path dir))
  |> List.filter (String.starts_with ~prefix:"stored ")
  |> List.sort compare

let is_temp name =
  String.starts_with ~prefix:".write" name && Filename.check_suffix name ".tmp"

(* Temp files under a store's fan-out directories. *)
let temps_in objects =
  Sys.readdir objects |> Array.to_list
  |> List.concat_map (fun sub ->
         let d = Filename.concat objects sub in
         if String.length sub = 2 && Sys.is_directory d then
           Sys.readdir d |> Array.to_list |> List.filter is_temp
           |> List.map (Filename.concat d)
         else [])

let temps dir = temps_in (Repo.objects_dir dir)

let verify_clean repo =
  match Repo.verify repo with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify: %s" (String.concat "; " ps)

let versions =
  let base = List.init 30 (fun i -> Printf.sprintf "line %d" i) in
  List.init 4 (fun v ->
      String.concat "\n" (base @ [ Printf.sprintf "version %d" (v + 1) ]))

(* four delta-chained versions, committed one by one *)
let mk_chain_repo ?store () =
  let dir = temp_dir () in
  let repo =
    match store with
    | None -> ok (Repo.init ~path:dir)
    | Some mk -> ok (Repo.init_with ~store:(mk dir) ~path:dir)
  in
  List.iter (fun c -> ignore (ok (Repo.commit repo c))) versions;
  (dir, repo)

let check_contents repo =
  List.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "version %d byte-identical" (i + 1))
        c
        (ok (Repo.checkout repo (i + 1))))
    versions

let expect_crash what f =
  match f () with
  | _ -> Alcotest.failf "%s: the injected crash must fire" what
  | exception Faults.Injected _ -> ()

(* ---- Fsutil: stage, publish, sweep ---- *)

let sync_methods =
  (if Fsutil.has_syncfs () then [ ("syncfs", Fsutil.Syncfs) ] else [])
  @ [ ("fsync", Fsutil.Fsync_each) ]

let test_syncfs_default_on_linux () =
  let uname =
    let ic = Unix.open_process_in "uname -s" in
    let s = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    s
  in
  if uname = "Linux" then
    Alcotest.(check bool) "Linux has syncfs" true (Fsutil.has_syncfs ());
  Alcotest.(check bool) "syncfs is the default where available" true
    (Fsutil.default_sync ()
    = if Fsutil.has_syncfs () then Fsutil.Syncfs else Fsutil.Fsync_each)

let test_stage_then_publish () =
  List.iter
    (fun (name, sync) ->
      let root = temp_dir () in
      ignore (ok (Fsutil.mkdir_p root));
      let b = Fsutil.batch ~sync root in
      let paths =
        List.map
          (fun (sub, file) -> Filename.concat (Filename.concat root sub) file)
          [ ("ab", "one"); ("ab", "two"); ("cd", "three") ]
      in
      List.iter (fun p -> ok (Fsutil.stage b ~site:"test.stage" p p)) paths;
      List.iter
        (fun p ->
          Alcotest.(check bool) (name ^ ": nothing at the final path") false
            (Sys.file_exists p);
          match Fsutil.staged b p with
          | Some tmp -> Alcotest.(check string) (name ^ ": staged") p (read_file tmp)
          | None -> Alcotest.failf "%s: %s not staged" name p)
        paths;
      Alcotest.(check int) (name ^ ": open temps survive a sweep") 0
        (Fsutil.remove_stale_temps root);
      ok (Fsutil.publish b);
      Alcotest.(check bool) (name ^ ": batch empty") true (Fsutil.is_empty b);
      List.iter
        (fun p -> Alcotest.(check string) (name ^ ": published") p (read_file p))
        paths;
      Alcotest.(check (list string)) (name ^ ": no temps") [] (temps_in root))
    sync_methods

let test_abort_and_abandon () =
  let root = temp_dir () in
  let path = Filename.concat (Filename.concat root "ab") "x" in
  let b = Fsutil.batch root in
  ok (Fsutil.stage b ~site:"test.stage" path "data");
  Fsutil.abort b;
  Alcotest.(check (list string)) "abort removes the temp" [] (temps_in root);
  ok (Fsutil.stage b ~site:"test.stage" path "data");
  Fsutil.abandon b;
  Alcotest.(check int) "an abandoned temp is left behind" 1
    (List.length (temps_in root));
  Alcotest.(check int) "and swept as stale" 1 (Fsutil.remove_stale_temps root);
  Alcotest.(check bool) "never published" false (Sys.file_exists path)

(* ---- Backend: staged digests stay private to the batch ---- *)

let test_fresh_handle_sees_no_staged_digest () =
  let dir = temp_dir () in
  let b = ok (Backend.fs ~dir) in
  let content = "staged content" in
  let digest = Content_hash.hex content in
  let seen_inside =
    ok
      (b.Backend.batch (fun () ->
           let* () = b.Backend.put ~digest content in
           let other = ok (Backend.fs ~dir) in
           Ok
             ( b.Backend.mem ~digest,
               b.Backend.get ~digest,
               other.Backend.mem ~digest,
               List.length (other.Backend.list ()) )))
  in
  let own_mem, own_get, other_mem, other_listed = seen_inside in
  Alcotest.(check bool) "the batch sees its staged digest" true own_mem;
  Alcotest.(check string) "and reads it" content (ok own_get);
  Alcotest.(check bool) "a fresh handle does not" false other_mem;
  Alcotest.(check int) "nor lists it" 0 other_listed;
  Alcotest.(check bool) "published after the batch" true
    ((ok (Backend.fs ~dir)).Backend.mem ~digest)

(* ---- the torn-write retries (bug fix) ---- *)

let test_retried_commit_after_torn_write () =
  Faults.reset ();
  let dir, repo = mk_chain_repo () in
  let content = String.concat "\n" (versions @ [ "one more line" ]) in
  Faults.arm ~site:"object_store.write" (Faults.Torn 0.3);
  expect_crash "commit" (fun () -> Repo.commit repo content);
  Faults.reset ();
  let repo = ok (Repo.open_repo ~path:dir) in
  let id = ok (Repo.commit repo content) in
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check string) "the retried commit reads back" content
    (ok (Repo.checkout repo id));
  verify_clean repo

let test_retried_optimize_after_torn_write () =
  Faults.reset ();
  let dir, repo = mk_chain_repo () in
  Faults.arm ~site:"object_store.write" (Faults.Torn 0.3);
  expect_crash "optimize" (fun () -> Repo.optimize repo Repo.Min_recreation);
  Faults.reset ();
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.optimize repo Repo.Min_recreation with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the retried optimize: %s" e);
  (* and again: an identical optimize rewrites nothing *)
  ignore (ok (Repo.optimize repo Repo.Min_recreation));
  let repo = ok (Repo.open_repo ~path:dir) in
  verify_clean repo;
  check_contents repo

(* ---- the object_store.sync fault site ---- *)

(* The optimize's stored map when nothing interrupts it. *)
let reference_map strategy =
  Faults.reset ();
  let dir, repo = mk_chain_repo () in
  ignore (ok (Repo.optimize repo strategy));
  stored_lines dir

let test_crash_at_sync () =
  let expected = reference_map Repo.Min_recreation in
  Faults.reset ();
  let dir, repo = mk_chain_repo () in
  let before = stored_lines dir in
  Faults.arm ~site:"object_store.sync" Faults.Crash;
  expect_crash "optimize" (fun () -> Repo.optimize repo Repo.Min_recreation);
  Faults.reset ();
  Alcotest.(check bool) "no journal" false (Sys.file_exists (journal_path dir));
  Alcotest.(check (list string)) "old metadata intact" before (stored_lines dir);
  Alcotest.(check bool) "the staged objects are temp files" true
    (temps dir <> []);
  let repo = ok (Repo.open_repo ~path:dir) in
  verify_clean repo;
  let report = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "fsck clean" [] report.Repo.problems;
  Alcotest.(check (list string)) "no temps after gc" [] (temps dir);
  ignore (ok (Repo.optimize repo Repo.Min_recreation));
  Alcotest.(check (list string)) "the re-run gives the same stored map"
    expected (stored_lines dir);
  check_contents (ok (Repo.open_repo ~path:dir))

let test_fail_at_sync () =
  let runs =
    [
      ( "optimize",
        fun repo -> Result.map ignore (Repo.optimize repo Repo.Min_recreation) );
      ( "import",
        fun repo ->
          Result.map ignore
            (Repo.import_versions repo
               [ ("a", [ 4 ], "fresh a"); ("b", [ 5 ], "fresh b") ]) );
    ]
  in
  List.iter
    (fun (label, run) ->
      Faults.reset ();
      let dir, repo = mk_chain_repo () in
      let before = stored_lines dir in
      let digests = List.sort compare (Object_store.list_digests (Repo.object_store repo)) in
      Faults.arm ~site:"object_store.sync" (Faults.Fail "injected: sync failed");
      (match run repo with
      | Ok () -> Alcotest.failf "%s must fail when the sync fails" label
      | Error e ->
          Alcotest.(check bool) (label ^ ": error surfaced") true
            (contains e "sync failed"));
      Faults.reset ();
      Alcotest.(check (list string)) (label ^ ": no staged file left") []
        (temps dir);
      Alcotest.(check (list string)) (label ^ ": no new object") digests
        (List.sort compare (Object_store.list_digests (Repo.object_store repo)));
      Alcotest.(check (list string)) (label ^ ": metadata unchanged") before
        (stored_lines dir);
      verify_clean (ok (Repo.open_repo ~path:dir)))
    runs

let test_torn_staged_write () =
  Faults.reset ();
  let dir, repo = mk_chain_repo () in
  Faults.arm ~site:"object_store.write" ~after:1 (Faults.Torn 0.5);
  expect_crash "optimize" (fun () -> Repo.optimize repo Repo.Min_recreation);
  Faults.reset ();
  Alcotest.(check bool) "the torn write is a temp file" true (temps dir <> []);
  let store = Repo.object_store repo in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "%s at its digest path is whole" d)
        true
        (Object_store.status store d = `Ok))
    (Object_store.list_digests store);
  verify_clean (ok (Repo.open_repo ~path:dir));
  ignore (ok (Repo.fsck ~path:dir ~repair:true));
  Alcotest.(check (list string)) "gc removes it" [] (temps dir)

let test_sync_hits () =
  Faults.reset ();
  let _, repo = mk_chain_repo () in
  let hits () = Faults.hits ~site:"object_store.sync" in
  Alcotest.(check int) "0 per commit" 0 (hits ());
  ignore (ok (Repo.optimize repo Repo.Min_recreation));
  Alcotest.(check int) "1 per optimize" 1 (hits ());
  ignore
    (ok (Repo.import_versions repo [ ("a", [ 4 ], "new a"); ("b", [ 5 ], "new b") ]));
  Alcotest.(check int) "1 per multi-entry import" 2 (hits ());
  ignore (ok (Repo.commit repo "one more"));
  Alcotest.(check int) "still 0 per commit" 2 (hits ())

(* The whole flow on the fsync fallback, which Linux never picks by
   itself. *)
let test_fallback_end_to_end () =
  Faults.reset ();
  let store dir =
    ok (Object_store.create_using Fsutil.Fsync_each ~dir:(Repo.objects_dir dir))
  in
  let dir, repo = mk_chain_repo ~store () in
  ignore
    (ok (Repo.import_versions repo [ ("a", [ 4 ], "new a"); ("b", [ 5 ], "new b") ]));
  ignore (ok (Repo.optimize repo Repo.Min_recreation));
  ignore (ok (Repo.optimize repo Repo.Min_storage));
  Faults.arm ~site:"object_store.sync" Faults.Crash;
  expect_crash "optimize" (fun () -> Repo.optimize repo Repo.Min_recreation);
  Faults.reset ();
  Alcotest.(check bool) "the crash left temps" true (temps dir <> []);
  let repo = ok (Repo.open_with ~store:(store dir) ~path:dir) in
  verify_clean repo;
  ignore (ok (Repo.optimize repo Repo.Min_recreation));
  Alcotest.(check (list string)) "no temps after gc" [] (temps dir);
  check_contents repo;
  Alcotest.(check string) "imports read back" "new b" (ok (Repo.checkout repo 6))

(* ---- gc and fsck --repair sweep stale temps ---- *)

let test_gc_and_repair_sweep_temps () =
  List.iter
    (fun (label, sweep) ->
      Faults.reset ();
      let dir, repo = mk_chain_repo () in
      let fan_out =
        Filename.dirname
          (Object_store.path_of (Repo.object_store repo)
             (Content_hash.hex (List.hd versions)))
      in
      List.iter
        (fun name -> Fsutil.write_file (Filename.concat fan_out name) "stale" |> ok)
        [ ".write123abc.tmp"; ".write0.tmp" ];
      Alcotest.(check int) (label ^ ": stale temps planted") 2
        (List.length (temps dir));
      sweep dir repo;
      Alcotest.(check (list string)) (label ^ ": swept") [] (temps dir);
      check_contents (ok (Repo.open_repo ~path:dir)))
    [
      ( "optimize's gc",
        fun _ repo -> ignore (ok (Repo.optimize repo Repo.Min_storage)) );
      ( "fsck --repair",
        fun dir _ ->
          let report = ok (Repo.fsck ~path:dir ~repair:true) in
          Alcotest.(check (list string)) "fsck clean" [] report.Repo.problems );
    ]

let suite =
  [
    Alcotest.test_case "syncfs is the default on Linux" `Quick
      test_syncfs_default_on_linux;
    Alcotest.test_case "stage then publish, both sync methods" `Quick
      test_stage_then_publish;
    Alcotest.test_case "abort removes, abandon leaves stale temps" `Quick
      test_abort_and_abandon;
    Alcotest.test_case "a fresh handle sees no staged digest" `Quick
      test_fresh_handle_sees_no_staged_digest;
    Alcotest.test_case "retried commit after a torn write" `Quick
      test_retried_commit_after_torn_write;
    Alcotest.test_case "retried optimize after a torn write" `Quick
      test_retried_optimize_after_torn_write;
    Alcotest.test_case "crash at object_store.sync" `Quick test_crash_at_sync;
    Alcotest.test_case "fail at object_store.sync" `Quick test_fail_at_sync;
    Alcotest.test_case "torn staged write stays a temp" `Quick
      test_torn_staged_write;
    Alcotest.test_case "object_store.sync hits" `Quick test_sync_hits;
    Alcotest.test_case "fsync fallback end to end" `Quick
      test_fallback_end_to_end;
    Alcotest.test_case "gc and fsck --repair sweep temps" `Quick
      test_gc_and_repair_sweep_temps;
  ]
