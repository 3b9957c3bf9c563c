(* Content hashing, the object store, and the prototype repository. *)

open Versioning_store
module Prng = Versioning_util.Prng

let temp_dir () =
  let path = Filename.temp_file "dsvc_test" "" in
  Sys.remove path;
  path

(* ---- Content_hash ---- *)

let test_hash_shape () =
  let h = Content_hash.hex "hello" in
  Alcotest.(check int) "32 hex chars" 32 (String.length h);
  Alcotest.(check bool) "valid" true (Content_hash.is_valid h);
  Alcotest.(check string) "deterministic" h (Content_hash.hex "hello");
  Alcotest.(check bool) "different content differs" true
    (Content_hash.hex "hello" <> Content_hash.hex "hellp");
  Alcotest.(check bool) "empty hashable" true
    (Content_hash.is_valid (Content_hash.hex ""));
  (* Known answers: every stored object is addressed by [hex], so a
     rewrite must not move any of these. *)
  List.iter
    (fun (content, digest) ->
      Alcotest.(check string) (Printf.sprintf "hex %S" content) digest
        (Content_hash.hex content))
    [
      ("", "cbf29ce4842223259ae16a3b2f90404f");
      ("hello", "a430d84680aabd0b16a54c9be37522b5");
      ("a,b\n1,2\n", "6c1480fd529a9f0161063cf2b34ec13b");
    ]

let test_hash_validation () =
  Alcotest.(check bool) "short rejected" false (Content_hash.is_valid "abc");
  Alcotest.(check bool) "uppercase rejected" false
    (Content_hash.is_valid (String.make 32 'A'));
  Alcotest.(check bool) "nonhex rejected" false
    (Content_hash.is_valid (String.make 32 'g'))

(* ---- Object_store ---- *)

let test_object_store_roundtrip () =
  let store = Result.get_ok (Object_store.create ~dir:(temp_dir ())) in
  let content = "some\nbinary\x00ish content" in
  let digest = Result.get_ok (Object_store.put store content) in
  Alcotest.(check bool) "mem" true (Object_store.mem store digest);
  Alcotest.(check string) "get" content
    (Result.get_ok (Object_store.get store digest));
  (* idempotent put *)
  let digest2 = Result.get_ok (Object_store.put store content) in
  Alcotest.(check string) "dedup" digest digest2;
  Alcotest.(check int) "one object" 1
    (List.length (Object_store.list_digests store));
  (* framing adds one byte; compression may shrink below raw *)
  Alcotest.(check bool) "bytes accounted" true
    (Object_store.total_bytes store <= String.length content + 1
    && Object_store.total_bytes store > 0)

let test_object_store_delete_missing () =
  let store = Result.get_ok (Object_store.create ~dir:(temp_dir ())) in
  let digest = Result.get_ok (Object_store.put store "x") in
  Object_store.delete store digest;
  Alcotest.(check bool) "deleted" false (Object_store.mem store digest);
  Object_store.delete store digest;
  (* double delete ok *)
  (match Object_store.get store digest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing object must error");
  match Object_store.get store "zz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid digest must error"

(* ---- Repo ---- *)

let ok = function Ok v -> v | Error e -> Alcotest.failf "repo error: %s" e

let test_repo_commit_checkout () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  Alcotest.(check bool) "no head initially" true (Repo.head repo = None);
  let v1 = ok (Repo.commit repo ~message:"one" "a,b\n1,2") in
  let v2 = ok (Repo.commit repo ~message:"two" "a,b\n1,2\n3,4") in
  Alcotest.(check int) "ids sequential" (v1 + 1) v2;
  Alcotest.(check (option int)) "head advanced" (Some v2) (Repo.head repo);
  Alcotest.(check string) "checkout v1" "a,b\n1,2" (ok (Repo.checkout repo v1));
  Alcotest.(check string) "checkout v2" "a,b\n1,2\n3,4"
    (ok (Repo.checkout repo v2));
  match Repo.checkout repo 99 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version must error"

let test_repo_persistence () =
  let dir = temp_dir () in
  let v2 =
    let repo = ok (Repo.init ~path:dir) in
    let _ = ok (Repo.commit repo ~message:"one" "alpha") in
    ok (Repo.commit repo ~message:"two" "alpha\nbeta")
  in
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check string) "reopened checkout" "alpha\nbeta"
    (ok (Repo.checkout repo v2));
  Alcotest.(check int) "log preserved" 2 (List.length (Repo.log repo));
  let info = Option.get (Repo.commit_info repo v2) in
  Alcotest.(check string) "message preserved" "two" info.Repo.message;
  (* double init fails *)
  match Repo.init ~path:dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double init must fail"

let test_repo_branches_and_merge () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let v1 = ok (Repo.commit repo "base") in
  ok (Repo.create_branch repo "feature" ());
  Alcotest.(check string) "switched" "feature" (Repo.current_branch repo);
  let v2 = ok (Repo.commit repo "base\nfeature-work") in
  ok (Repo.switch repo "main");
  let v3 = ok (Repo.commit repo "base\nmain-work") in
  (* user-performed merge with two parents *)
  let vm =
    ok (Repo.commit repo ~parents:[ v3; v2 ] "base\nmain-work\nfeature-work")
  in
  let info = Option.get (Repo.commit_info repo vm) in
  Alcotest.(check (list int)) "merge parents" [ v3; v2 ] info.Repo.parents;
  Alcotest.(check string) "merge content" "base\nmain-work\nfeature-work"
    (ok (Repo.checkout repo vm));
  Alcotest.(check bool) "v1 still retrievable" true
    (Repo.checkout repo v1 = Ok "base");
  (* duplicate branch and unknown switch fail *)
  (match Repo.create_branch repo "feature" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate branch");
  match Repo.switch repo "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown branch"

let test_repo_delta_storage () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let big = String.concat "\n" (List.init 100 (fun i -> Printf.sprintf "row %d" i)) in
  let _ = ok (Repo.commit repo big) in
  let _ = ok (Repo.commit repo (big ^ "\nrow 100")) in
  let stats = Repo.stats repo in
  Alcotest.(check int) "second version delta-stored" 1 stats.Repo.n_delta;
  Alcotest.(check bool) "storage far below two copies" true
    (stats.Repo.storage_bytes < 2 * String.length big)

let test_repo_optimize_strategies () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let rng = Prng.create ~seed:67 in
  let content = ref (String.concat "\n" (List.init 60 (fun i -> Printf.sprintf "line %d %d" i (Prng.int rng 10)))) in
  let ids = ref [] in
  for i = 1 to 12 do
    ids := ok (Repo.commit repo ~message:(string_of_int i) !content) :: !ids;
    content :=
      !content ^ Printf.sprintf "\nextra %d %d" i (Prng.int rng 100)
  done;
  let contents_before =
    List.map (fun v -> (v, ok (Repo.checkout repo v))) !ids
  in
  List.iter
    (fun strategy ->
      (* [~check:true] routes every strategy's plan through
         Solution_check before the rewrite. *)
      let stats = ok (Repo.optimize repo ~check:true strategy) in
      Alcotest.(check int) "versions preserved" 12 stats.Repo.n_versions;
      (* all contents identical after the rewrite *)
      List.iter
        (fun (v, before) ->
          Alcotest.(check string) "content preserved" before
            (ok (Repo.checkout repo v)))
        contents_before)
    [
      Repo.Min_storage;
      Repo.Min_recreation;
      Repo.Budgeted_sum 1.5;
      Repo.Bounded_max 3.0;
      Repo.Git_window (5, 10);
      Repo.Svn_skip;
    ];
  (* min-recreation materializes everything *)
  let stats = ok (Repo.optimize repo Repo.Min_recreation) in
  Alcotest.(check int) "all materialized" 12 stats.Repo.n_full;
  Alcotest.(check int) "no chains" 0 stats.Repo.max_chain;
  (* min-storage plan matches MCA on the same graph: storage strictly
     less than materializing everything *)
  let stats2 = ok (Repo.optimize repo Repo.Min_storage) in
  Alcotest.(check bool) "delta storage wins" true
    (stats2.Repo.storage_bytes < stats.Repo.storage_bytes)

let test_repo_storage_parents () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let _ = ok (Repo.commit repo "aaa") in
  let _ = ok (Repo.commit repo "aaa\nbbb") in
  let _ = ok (Repo.optimize repo Repo.Min_recreation) in
  Alcotest.(check (list (pair int int))) "all materialized"
    [ (0, 1); (0, 2) ]
    (Repo.storage_parents repo)

let test_repo_unknown_parent () =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  match Repo.commit repo ~parents:[ 42 ] "content" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parent must fail"

let suite =
  [
    Alcotest.test_case "hash shape" `Quick test_hash_shape;
    Alcotest.test_case "hash validation" `Quick test_hash_validation;
    Alcotest.test_case "object store roundtrip" `Quick
      test_object_store_roundtrip;
    Alcotest.test_case "object store delete/missing" `Quick
      test_object_store_delete_missing;
    Alcotest.test_case "commit / checkout" `Quick test_repo_commit_checkout;
    Alcotest.test_case "persistence" `Quick test_repo_persistence;
    Alcotest.test_case "branches / merge" `Quick test_repo_branches_and_merge;
    Alcotest.test_case "delta storage on commit" `Quick test_repo_delta_storage;
    Alcotest.test_case "optimize strategies" `Quick
      test_repo_optimize_strategies;
    Alcotest.test_case "storage parents" `Quick test_repo_storage_parents;
    Alcotest.test_case "unknown parent" `Quick test_repo_unknown_parent;
  ]
