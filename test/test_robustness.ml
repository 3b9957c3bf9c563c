(* Robustness: corrupted persistent state must surface as [Error]
   (or a detected verify failure), never as a crash or silent
   misbehaviour. *)

open Versioning_store
module Faults = Versioning_util.Faults
module Prng = Versioning_util.Prng

let temp_dir () =
  let path = Filename.temp_file "dsvc_rob" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let meta_path dir = Filename.concat (Filename.concat dir ".dsvc") "meta"

let mk_repo () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let _ = ok (Repo.commit repo ~message:"one" "alpha\nbeta") in
  let _ = ok (Repo.commit repo ~message:"two" "alpha\nbeta\ngamma") in
  ok (Repo.tag repo "v1" ~at:1 ());
  dir

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  (* lint: raw-write-ok this helper deliberately clobbers store files
     with corrupt bytes; an atomic durable write would defeat the test *)
  let oc = open_out_bin p in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let test_meta_truncation () =
  (* every prefix-truncation of the metadata either loads (a prefix
     can be a valid file) or errors cleanly *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  for len = 0 to String.length meta - 1 do
    write_file (meta_path dir) (String.sub meta 0 len);
    match Repo.open_repo ~path:dir with
    | Ok repo ->
        (* a loadable prefix must still behave: log never raises *)
        ignore (Repo.log repo)
    | Error _ -> ()
  done

let test_meta_line_mutations () =
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let lines = String.split_on_char '\n' meta in
  let rng = Prng.create ~seed:331 in
  (* mutate each line in several ways *)
  List.iteri
    (fun i _ ->
      let mutate kind =
        let mutated =
          List.mapi
            (fun j l ->
              if i <> j then l
              else
                match kind with
                | `Garbage -> "!!garbage!!"
                | `Shuffle ->
                    let arr =
                      Array.of_seq (String.to_seq l)
                    in
                    Prng.shuffle rng arr;
                    String.of_seq (Array.to_seq arr)
                | `Double -> l ^ " " ^ l)
            lines
        in
        write_file (meta_path dir) (String.concat "\n" mutated);
        match Repo.open_repo ~path:dir with
        | Ok repo -> ignore (Repo.stats repo)
        | Error _ -> ()
      in
      mutate `Garbage;
      mutate `Shuffle;
      mutate `Double)
    lines;
  (* restore and confirm the original still loads *)
  write_file (meta_path dir) meta;
  ignore (ok (Repo.open_repo ~path:dir))

let test_dangling_stored_reference () =
  (* metadata referencing a nonexistent object: checkout errors,
     verify reports *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let bogus = String.make 32 'a' in
  let mutated =
    String.split_on_char '\n' meta
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ "stored"; id; "full"; _ ] ->
               Printf.sprintf "stored %s full %s" id bogus
           | _ -> l)
    |> String.concat "\n"
  in
  write_file (meta_path dir) mutated;
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.checkout repo 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling object must fail checkout");
  match Repo.verify repo with
  | Error problems -> Alcotest.(check bool) "reported" true (problems <> [])
  | Ok () -> Alcotest.fail "verify must flag dangling objects"

let test_cyclic_stored_chain () =
  (* hand-corrupted metadata can make version 1 a delta of version 2
     and vice versa; checkout must detect the cycle *)
  let dir = mk_repo () in
  let meta = read_file (meta_path dir) in
  let digest_of_stored l =
    match String.split_on_char ' ' l with
    | [ "stored"; _; "full"; d ] | [ "stored"; _; "delta"; _; d ] -> Some d
    | _ -> None
  in
  let some_digest =
    String.split_on_char '\n' meta |> List.filter_map digest_of_stored |> List.hd
  in
  let mutated =
    String.split_on_char '\n' meta
    |> List.filter (fun l ->
           match String.split_on_char ' ' l with
           | "stored" :: _ -> false
           | [ "end" ] | [ "" ] -> false
           | _ -> true)
    |> fun rest ->
    rest
    @ [
        Printf.sprintf "stored 1 delta 2 %s" some_digest;
        Printf.sprintf "stored 2 delta 1 %s" some_digest;
        "end";
        "";
      ]
    |> String.concat "\n"
  in
  write_file (meta_path dir) mutated;
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.checkout repo 1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cycle must fail checkout");
  (match Repo.verify repo with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "verify must flag the cycle");
  (* the Φ walk behind stats and the drift score ends the chain at the
     repeated version instead of recursing forever *)
  let s = Repo.stats repo in
  Alcotest.(check bool) "stats finite" true
    (Float.is_finite s.Repo.sum_recreation_bytes
    && Float.is_finite s.Repo.max_recreation_bytes
    && s.Repo.max_chain <= 2);
  let costs = Repo.predicted_costs repo in
  Alcotest.(check (list int)) "predicted costs per version" [ 1; 2 ]
    (List.map fst costs);
  Alcotest.(check bool) "predicted costs finite" true
    (List.for_all (fun (_, c) -> Float.is_finite c) costs);
  Alcotest.(check bool) "drift finite" true
    (Float.is_finite (Repo.drift_score repo))

let test_archive_fuzz () =
  (* random byte flips in a packed archive never crash unpack *)
  let rng = Prng.create ~seed:337 in
  let entries =
    [
      { Archive.path = "a.csv"; content = "x,y\n1,2\n3,4" };
      { Archive.path = "dir/b"; content = String.make 64 'q' };
    ]
  in
  let packed = Result.get_ok (Archive.pack entries) in
  for _ = 1 to 500 do
    let b = Bytes.of_string packed in
    let pos = Prng.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Prng.int rng 256));
    match Archive.unpack (Bytes.to_string b) with
    | Ok entries' ->
        (* a lucky mutation may still parse; it must still be
           internally consistent *)
        ignore (Result.map (List.map (fun e -> e.Archive.path)) (Ok entries'))
    | Error _ -> ()
  done

let test_graph_io_fuzz () =
  let rng = Prng.create ~seed:347 in
  let g = Versioning_core.Graph_io.to_string (Fixtures.figure1 ()) in
  for _ = 1 to 500 do
    let b = Bytes.of_string g in
    let pos = Prng.int rng (Bytes.length b) in
    Bytes.set b pos (Char.chr (Prng.int rng 256));
    match Versioning_core.Graph_io.of_string (Bytes.to_string b) with
    | Ok g' -> ignore (Versioning_core.Aux_graph.n_versions g')
    | Error _ -> ()
  done

(* ---- fault injection ----

   These drive the crash-safety machinery end to end: injected write
   failures, torn metadata, crashes between optimize phases, and media
   corruption — each followed by recovery via [open_repo] / [fsck]. *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let journal_path dir = Filename.concat (Filename.concat dir ".dsvc") "journal"

let object_path dir digest =
  Filename.concat
    (Filename.concat
       (Filename.concat (Filename.concat dir ".dsvc") "objects")
       (String.sub digest 0 2))
    (String.sub digest 2 30)

let flip_byte path pos =
  let b = Bytes.of_string (read_file path) in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  write_file path (Bytes.to_string b)

(* four versions with heavily shared lines, so commits delta-chain *)
let mk_chain_repo () =
  let dir = temp_dir () in
  let repo = ok (Repo.init ~path:dir) in
  let base = List.init 30 (fun i -> Printf.sprintf "line %d" i) in
  let contents =
    List.init 4 (fun v ->
        String.concat "\n" (base @ [ Printf.sprintf "version %d" (v + 1) ]))
  in
  List.iter (fun c -> ignore (ok (Repo.commit repo c))) contents;
  (dir, repo, contents)

let check_contents dir expected =
  let repo = ok (Repo.open_repo ~path:dir) in
  List.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "version %d byte-identical" (i + 1))
        c
        (ok (Repo.checkout repo (i + 1))))
    expected

(* Every metadata mutation, with the metadata save failing: the call
   returns [Error], the handle still shows exactly what a fresh open of
   the directory shows, and the next mutation succeeds. *)
let test_commit_save_failure_rolls_back () =
  let ok_unit r = Result.map ignore r in
  let mutations =
    [
      ("commit", fun r -> ok_unit (Repo.commit r ~message:"doomed" "new"));
      ( "import_versions",
        (* the second entry chains onto the first *)
        fun r ->
          ok_unit
            (Repo.import_versions r [ ("a", [ 4 ], "x"); ("b", [ 5 ], "y") ]) );
      ("create_branch", fun r -> Repo.create_branch r "side" ());
      ("switch", fun r -> Repo.switch r "main");
      ("tag", fun r -> Repo.tag r "t1" ~at:2 ());
      ( "adopt_meta",
        fun r ->
          (* a peer's next generation: ours plus one tag *)
          let pushed =
            String.split_on_char '\n' (ok (Repo.export_meta r))
            |> List.map (fun l ->
                   if not (String.starts_with ~prefix:"gen " l) then l
                   else
                     Printf.sprintf "gen %d\ntag peer 2"
                       (Repo.generation r + 1))
            |> String.concat "\n"
          in
          ok_unit (Repo.adopt_meta r pushed) );
      ("optimize", fun r -> ok_unit (Repo.optimize r Repo.Min_recreation));
    ]
  in
  (* timestamps aside: the file keeps them to the microsecond *)
  let observe r =
    ( List.map
        (fun (c : Repo.commit_info) -> (c.id, c.parents, c.message))
        (Repo.log r),
      (Repo.branches r, Repo.tags r, Repo.current_branch r),
      (Repo.storage_parents r, Repo.generation r) )
  in
  List.iter
    (fun (name, mutate) ->
      Faults.reset ();
      let dir, repo, _ = mk_chain_repo () in
      Faults.arm ~site:"repo.save" (Faults.Fail "injected: disk full");
      (match mutate repo with
      | Ok () -> Alcotest.failf "%s must fail when the save fails" name
      | Error e ->
          Alcotest.(check bool) (name ^ ": error surfaced") true
            (contains e "disk full"));
      Faults.reset ();
      (* the failed mutation installed nothing: memory equals disk *)
      let fresh = ok (Repo.open_repo ~path:dir) in
      Alcotest.(check bool) (name ^ ": handle matches a fresh open") true
        (observe repo = observe fresh);
      Alcotest.(check bool) (name ^ ": no optimize journal left") false
        (Repo.journal_pending repo);
      (* no temp file leaked next to the metadata *)
      let leaked =
        Sys.readdir (Filename.concat dir ".dsvc")
        |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tmp")
      in
      Alcotest.(check (list string)) (name ^ ": no temp files") [] leaked;
      (* the handle stays usable *)
      (match mutate repo with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s after the failure: %s" name e);
      let id = ok (Repo.commit repo ~message:"after" "recovered content") in
      Alcotest.(check string) (name ^ ": later commit works")
        "recovered content"
        (ok (Repo.checkout repo id)))
    mutations

let test_torn_meta_write () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"repo.save" (Faults.Torn 0.5);
  (try
     ignore (Repo.commit repo ~message:"torn" "content lost to the crash");
     Alcotest.fail "torn write must simulate a crash"
   with Faults.Injected _ -> ());
  (* the on-disk metadata is now a prefix: it must refuse to load *)
  (match Repo.open_repo ~path:dir with
  | Ok _ -> Alcotest.fail "torn metadata must not load"
  | Error e ->
      Alcotest.(check bool) "detected as corrupt" true (contains e "corrupt"));
  (* fsck --repair falls back to the backup generation *)
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check bool) "backup restore reported" true
    (List.exists (fun a -> contains a "backup") result.Repo.actions);
  Alcotest.(check (list string)) "consistent after repair" []
    result.Repo.problems;
  (* every pre-crash version is back, byte-identical *)
  check_contents dir contents

let test_crash_between_optimize_phases () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"optimize.after_journal" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_storage);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  (* killed between object-write and metadata-swap: journal on disk *)
  Alcotest.(check bool) "journal present" true
    (Sys.file_exists (journal_path dir));
  (* open_repo recovers the interrupted optimize *)
  let repo' = ok (Repo.open_repo ~path:dir) in
  (match Repo.verify repo' with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify after recovery: %s" (String.concat "; " ps));
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "fsck clean" [] result.Repo.problems;
  Alcotest.(check bool) "journal resolved" false
    (Sys.file_exists (journal_path dir));
  check_contents dir contents

let test_crash_before_journal_keeps_old_plan () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  Faults.arm ~site:"optimize.after_objects" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_recreation);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  (* no journal was written: the old metadata is authoritative and the
     new objects are strays *)
  Alcotest.(check bool) "no journal" false (Sys.file_exists (journal_path dir));
  let repo' = ok (Repo.open_repo ~path:dir) in
  (match Repo.verify repo' with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify: %s" (String.concat "; " ps));
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "fsck clean" [] result.Repo.problems;
  check_contents dir contents

let test_corrupt_blob_detected_on_checkout () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  ignore repo;
  (* version 1 is stored in full: flip one byte in the middle of its
     object file *)
  let digest = Content_hash.hex (List.hd contents) in
  flip_byte (object_path dir digest) 20;
  let repo = ok (Repo.open_repo ~path:dir) in
  (match Repo.checkout repo 1 with
  | Ok _ -> Alcotest.fail "corrupted blob must fail checkout"
  | Error e ->
      Alcotest.(check bool) "digest mismatch reported" true
        (contains e "corrupt" || contains e "digest"));
  (* verify and plain fsck both flag it *)
  (match Repo.verify repo with
  | Ok () -> Alcotest.fail "verify must flag corruption"
  | Error _ -> ());
  let result = ok (Repo.fsck ~path:dir ~repair:false) in
  Alcotest.(check bool) "fsck reports problems" true (result.Repo.problems <> [])

let test_repair_restores_all_versions () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  (* remember the delta object version 2 is stored as before optimize *)
  let old_meta = read_file (meta_path dir) in
  let old_v2_digest =
    String.split_on_char '\n' old_meta
    |> List.find_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "stored"; "2"; "delta"; _; d ] | [ "stored"; "2"; "full"; d ] ->
               Some d
           | _ -> None)
    |> Option.get
  in
  (* crash after the metadata swap: journal still pending, old objects
     not yet collected *)
  Faults.arm ~site:"optimize.after_swap" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_recreation);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  Alcotest.(check bool) "journal present" true
    (Sys.file_exists (journal_path dir));
  (* damage BOTH plans: version 3's full object (new plan) and version
     2's delta object (old plan) — neither plan alone reconstructs
     everything, but their union does *)
  flip_byte (object_path dir (Content_hash.hex (List.nth contents 2))) 25;
  flip_byte (object_path dir old_v2_digest) 3;
  (* open_repo can't roll forward or back; the journal is kept *)
  let repo' = ok (Repo.open_repo ~path:dir) in
  ignore repo';
  Alcotest.(check bool) "journal kept for repair" true
    (Sys.file_exists (journal_path dir));
  (* repair recovers every version across both plans *)
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check (list string)) "no problems after repair" []
    result.Repo.problems;
  Alcotest.(check bool) "corrupt objects quarantined" true
    (List.exists (fun a -> contains a "quarantined") result.Repo.actions);
  Alcotest.(check bool) "versions re-materialized" true
    (List.exists (fun a -> contains a "re-materialized") result.Repo.actions);
  Alcotest.(check bool) "journal resolved" false
    (Sys.file_exists (journal_path dir));
  check_contents dir contents

let test_lock_excludes_other_process () =
  let dir, repo, _ = mk_chain_repo () in
  ignore repo;
  (* this process holds the lock; a separate process must be refused.
     A spawned probe, not a fork: fork is unavailable once the domain
     pool has spawned, and POSIX record locks don't exclude within a
     process anyway. *)
  let probe =
    Filename.concat (Filename.dirname Sys.executable_name) "lock_probe.exe"
  in
  let pid =
    Unix.create_process probe [| probe; dir |] Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED 1 -> Alcotest.fail "second process acquired a held lock"
  | _, Unix.WEXITED 2 -> Alcotest.fail "open failed with the wrong error"
  | _ -> Alcotest.fail "probe died abnormally"

let test_ref_name_validation () =
  let _, repo, _ = mk_chain_repo () in
  (* names that would corrupt the line-oriented metadata are refused *)
  (match Repo.create_branch repo "bad name" () with
  | Error e -> Alcotest.(check bool) "space refused" true (contains e "invalid")
  | Ok () -> Alcotest.fail "branch name with a space must be refused");
  (match Repo.tag repo "bad\nname" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tag name with a newline must be refused");
  (match Repo.tag repo "" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty tag name must be refused");
  ok (Repo.create_branch repo "fine-name.1" ());
  Alcotest.(check string) "valid name accepted" "fine-name.1"
    (Repo.current_branch repo)

(* ---- format stability ----

   Files as the store wrote them before every line file moved onto
   the shared [Line_file] codec, captured verbatim: they must keep
   loading with the same contents. Meta and journal [stored] entries
   follow hash-table order, so those two compare as sets of lines. *)

let meta_fixture = {|dsvc 1
head dev
next 5
gen 8
branch dev 4
branch main 2
tag v1.0 2
version 4 1792204515.380095 3,2 merge
version 3 1792204515.379146 1 on dev
version 2 1792204515.377623 1 second \"quoted\"\twith tab
version 1 1792204515.376091 - first
stored 2 delta 1 d80bd5490909a4ae130167720847c9c8
stored 3 delta 1 d80f3749090c810b1304d172084ab3bd
stored 1 full 859830575013c467a9cdae1268f25319
stored 4 delta 3 dc05b48de27f2c9a3f19ca52bfef6afc
end
|}

let journal_fixture = {|journal 1
old 2 delta 1 8fbbb79126336918a73ad044097f2be6
old 3 delta 2 8fbf21912636530da73e324409820843
old 1 full 27baa2c3ff3c894be2e18b2fa8fc95ed
old 4 delta 3 8fa7579126221ceea74f304409907810
new 2 delta 4 8fbbb79126336918a73ad044097f2be6
new 3 delta 4 8fbf21912636530da73e324409820843
new 1 delta 2 8fb8419126306abfa74512440987f091
new 4 full 27baa5c3ff3c8e64e2e1862fa8fc8d6e
end
|}

let telemetry_fixture = {|telemetry 1
decay 0x1.ccccccccccccdp-1 8 3
events 5
v 1 3 1 0x1.3ba92a3055326p+1 5 2 0x1.4p-2 0x1.ea48p+19 -
v 2 1 1 0x1p+0 2 1 0x1.a36e2eb1c432dp-14 0x1.8p+3 0af7651916cd43dd8448eb211c80319c
v 3 1 0 0x1p+0 4 1 0x1.5555555555555p-1 0x1.34p+6 -
s 2 0x1.a36e2eb1c432dp-14 0x1.8p+3 0x0p+0
s 1 0x1.3333333333333p-2 0x1.e848p+19 0x1.e848p+17
s 3 0x1.5555555555555p-1 0x1.34p+6 0x1.18p+6
end
|}

let timeseries_fixture = {|timeseries 1
conf 0x1.4p+2 4
m 0 3 1 0x1p-1 0x1p-1 0x1p-1 0x1p-1 dsvc_up
m 0 5 1 0x1p+0 0x1p+0 0x1p+0 0x1p+0 dsvc_up
m 0 6 1 0x1p+0 0x1p+0 0x1p+0 0x1p+0 dsvc_up
m 0 11 1 0x1p-2 0x1p-2 0x1p-2 0x1p-2 dsvc_up
m 1 0 7 0x1.6p+2 0x0p+0 0x1p+0 0x1p+0 dsvc_up
m 1 1 1 0x1p-2 0x1p-2 0x1p-2 0x1p-2 dsvc_up
m 2 0 8 0x1.7p+2 0x0p+0 0x1p+0 0x1p-2 dsvc_up
m 0 0 1 0x1.9652bd3c36113p-9 0x1.9652bd3c36113p-9 0x1.9652bd3c36113p-9 0x1.9652bd3c36113p-9 req p99{route="/checkout/:name"}
m 0 1 1 0x1.5555555555555p-2 0x1.5555555555555p-2 0x1.5555555555555p-2 0x1.5555555555555p-2 req p99{route="/checkout/:name"}
m 0 26 1 -0x1.4p+1 -0x1.4p+1 -0x1.4p+1 -0x1.4p+1 req p99{route="/checkout/:name"}
m 1 0 2 0x1.5881facfcdc17p-2 0x1.9652bd3c36113p-9 0x1.5555555555555p-2 0x1.5555555555555p-2 req p99{route="/checkout/:name"}
m 1 2 1 -0x1.4p+1 -0x1.4p+1 -0x1.4p+1 -0x1.4p+1 req p99{route="/checkout/:name"}
m 2 0 3 -0x1.14efc0a60647dp+1 -0x1.4p+1 0x1.5555555555555p-2 -0x1.4p+1 req p99{route="/checkout/:name"}
end
|}

let sorted_lines s = List.sort compare (String.split_on_char '\n' s)

let test_meta_fixture_loads () =
  let dir = temp_dir () in
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir ".dsvc") 0o755;
  write_file (meta_path dir) meta_fixture;
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check (list int)) "versions, newest first" [ 4; 3; 2; 1 ]
    (List.map (fun (c : Repo.commit_info) -> c.id) (Repo.log repo));
  let info v = Option.get (Repo.commit_info repo v) in
  Alcotest.(check (list int)) "merge parents" [ 3; 2 ] (info 4).parents;
  Alcotest.(check string) "escaped message" "second \"quoted\"\twith tab"
    (info 2).message;
  Alcotest.(check string) "head branch" "dev" (Repo.current_branch repo);
  Alcotest.(check (list (pair string int))) "branches"
    [ ("dev", 4); ("main", 2) ] (Repo.branches repo);
  Alcotest.(check (list (pair string int))) "tags" [ ("v1.0", 2) ]
    (Repo.tags repo);
  Alcotest.(check (list (pair int int))) "storage plan"
    [ (0, 1); (1, 2); (1, 3); (3, 4) ]
    (Repo.storage_parents repo);
  Alcotest.(check int) "generation" 8 (Repo.generation repo);
  (* a no-op switch saves: the same lines come back, generation bumped *)
  ok (Repo.switch repo "dev");
  Repo.close repo;
  Alcotest.(check (list string)) "re-rendered lines"
    (sorted_lines meta_fixture
    |> List.map (function "gen 8" -> "gen 9" | l -> l)
    |> List.sort compare)
    (sorted_lines (read_file (meta_path dir)))

(* The journal fixture was written by this exact crash on this exact
   repository; object digests are content hashes, so both runs name
   the same blobs. *)
let crash_after_journal () =
  Faults.reset ();
  let dir, repo, contents = mk_chain_repo () in
  let old_plan = Repo.storage_parents repo in
  Faults.arm ~site:"optimize.after_journal" Faults.Crash;
  (try
     ignore (Repo.optimize repo Repo.Min_storage);
     Alcotest.fail "injected crash must fire"
   with Faults.Injected _ -> ());
  (dir, old_plan, contents)

let test_journal_fixture_recovers () =
  let dir, _, contents = crash_after_journal () in
  Alcotest.(check (list string)) "journal entries match the fixture"
    (sorted_lines journal_fixture)
    (sorted_lines (read_file (journal_path dir)));
  write_file (journal_path dir) journal_fixture;
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check bool) "journal resolved" false (Repo.journal_pending repo);
  Alcotest.(check (list (pair int int))) "rolled forward to the new map"
    [ (2, 1); (4, 2); (4, 3); (0, 4) ]
    (Repo.storage_parents repo);
  check_contents dir contents

let test_torn_journal_discarded () =
  let dir, old_plan, contents = crash_after_journal () in
  let journal = read_file (journal_path dir) in
  (* cut mid-body: the [end] trailer never made it to disk *)
  write_file (journal_path dir)
    (String.sub journal 0 (String.length journal / 2));
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check bool) "torn journal removed" false
    (Sys.file_exists (journal_path dir));
  Alcotest.(check (list (pair int int))) "metadata stays authoritative"
    old_plan (Repo.storage_parents repo);
  check_contents dir contents

let test_ledger_fixtures_roundtrip () =
  let module Telemetry = Versioning_obs.Telemetry in
  let module Timeseries = Versioning_obs.Timeseries in
  let t = ok (Telemetry.parse telemetry_fixture) in
  Alcotest.(check int) "telemetry events" 5 (Telemetry.events t);
  Alcotest.(check int) "telemetry samples" 3
    (List.length (Telemetry.samples t));
  Alcotest.(check string) "telemetry re-renders byte-identically"
    telemetry_fixture (Telemetry.render t);
  let ts = ok (Timeseries.parse timeseries_fixture) in
  Alcotest.(check (option (float 0.0))) "newest dsvc_up" (Some 0.25)
    (Timeseries.latest ts ~metric:"dsvc_up");
  Alcotest.(check string) "timeseries re-renders byte-identically"
    timeseries_fixture (Timeseries.render ts)

(* Random metadata values: merges, full and delta entries, tags,
   generation 0 (rendered as no [gen] line), and messages with spaces,
   tabs, quotes, backslashes and arbitrary bytes. Timestamps carry at
   most 15 significant digits, which the file's [%.6f] reproduces
   exactly. *)
let gen_plan ids =
  let open QCheck.Gen in
  let hex = oneofl (List.of_seq (String.to_seq "0123456789abcdef")) in
  let digest = string_size ~gen:hex (return 32) in
  List.fold_left
    (fun acc id ->
      let* m = acc in
      let* d = digest in
      let* entry =
        if id = 1 then return (Meta.Full d)
        else
          oneof
            [
              return (Meta.Full d);
              map (fun p -> Meta.Delta_from (p, d)) (int_range 1 (id - 1));
            ]
      in
      return (Meta.Int_map.add id entry m))
    (return Meta.Int_map.empty) ids

let gen_meta =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let message =
    let tricky = oneofl [ ' '; '\t'; '"'; '\\' ] in
    string_size
      ~gen:(frequency [ (3, printable); (1, tricky); (1, char) ])
      (int_bound 16)
  in
  let* n = int_bound 8 in
  let ids = List.init n (fun i -> i + 1) in
  let* commits =
    flatten_l
      (List.rev_map
         (fun id ->
           let* parents =
             if id = 1 then return []
             else
               map (List.sort_uniq compare)
                 (list_size (int_range 1 2) (int_range 1 (id - 1)))
           in
           let* message = message in
           let* s = int_bound 999_999_999 in
           let* us = int_bound 999_999 in
           return
             { Meta.id; parents; message;
               timestamp = float_of_string (Printf.sprintf "%d.%06d" s us) })
         ids)
  in
  let* stored = gen_plan ids in
  let* branches = list_size (int_range 1 3) (pair name (int_bound n)) in
  let* tags = small_list (pair name (int_range 1 (max 1 n))) in
  let* head = name in
  let* generation = int_bound 3 in
  return
    { Meta.commits; stored; branches; tags; head; next_id = n + 1; generation }

let same_meta (a : Meta.t) (b : Meta.t) =
  Meta.Int_map.bindings a.stored = Meta.Int_map.bindings b.stored
  && { a with stored = Meta.Int_map.empty }
     = { b with stored = Meta.Int_map.empty }

let qcheck_meta_roundtrip =
  QCheck.Test.make ~name:"meta render/parse round-trip" ~count:300
    (QCheck.make ~print:Meta.render gen_meta)
    (fun m ->
      match Meta.parse (Meta.render m) with
      | Ok m' -> same_meta m m'
      | Error e -> QCheck.Test.fail_report e)

let qcheck_journal_roundtrip =
  let gen =
    QCheck.Gen.(
      let* n = int_bound 8 in
      let ids = List.init n (fun i -> i + 1) in
      pair (gen_plan ids) (gen_plan ids))
  in
  QCheck.Test.make ~name:"journal render/parse round-trip" ~count:200
    (QCheck.make
       ~print:(fun (old_map, new_map) -> Meta.render_journal ~old_map ~new_map)
       gen)
    (fun (old_map, new_map) ->
      match Meta.parse_journal (Meta.render_journal ~old_map ~new_map) with
      | Ok (o, n) ->
          Meta.Int_map.bindings o = Meta.Int_map.bindings old_map
          && Meta.Int_map.bindings n = Meta.Int_map.bindings new_map
      | Error e -> QCheck.Test.fail_report e)

(* A file that lost its header must not load as an empty repository:
   fsck --repair would then collect every blob as unreferenced. *)
let test_headerless_meta_restored_from_backup () =
  let dir = mk_repo () in
  write_file (meta_path dir) "end\n";
  (match Repo.open_repo ~path:dir with
  | Ok _ -> Alcotest.fail "headerless metadata must not load"
  | Error e ->
      Alcotest.(check bool) "detected as corrupt" true (contains e "corrupt"));
  let result = ok (Repo.fsck ~path:dir ~repair:true) in
  Alcotest.(check bool) "backup restore reported" true
    (List.exists
       (fun a -> contains a "restored metadata from backup")
       result.Repo.actions);
  let repo = ok (Repo.open_repo ~path:dir) in
  Alcotest.(check string) "version 1 survives" "alpha\nbeta"
    (ok (Repo.checkout repo 1))

let suite =
  [
    Alcotest.test_case "meta truncation" `Quick test_meta_truncation;
    Alcotest.test_case "meta line mutations" `Quick test_meta_line_mutations;
    Alcotest.test_case "dangling object" `Quick test_dangling_stored_reference;
    Alcotest.test_case "cyclic stored chain" `Quick test_cyclic_stored_chain;
    Alcotest.test_case "archive fuzz" `Quick test_archive_fuzz;
    Alcotest.test_case "graph io fuzz" `Quick test_graph_io_fuzz;
    Alcotest.test_case "commit save failure rolls back" `Quick
      test_commit_save_failure_rolls_back;
    Alcotest.test_case "torn meta write" `Quick test_torn_meta_write;
    Alcotest.test_case "crash between optimize phases" `Quick
      test_crash_between_optimize_phases;
    Alcotest.test_case "crash before journal" `Quick
      test_crash_before_journal_keeps_old_plan;
    Alcotest.test_case "corrupt blob on checkout" `Quick
      test_corrupt_blob_detected_on_checkout;
    Alcotest.test_case "repair restores all versions" `Quick
      test_repair_restores_all_versions;
    Alcotest.test_case "lock excludes other process" `Quick
      test_lock_excludes_other_process;
    Alcotest.test_case "ref name validation" `Quick test_ref_name_validation;
    Alcotest.test_case "v1 meta fixture loads" `Quick
      test_meta_fixture_loads;
    Alcotest.test_case "v1 journal fixture recovers" `Quick
      test_journal_fixture_recovers;
    Alcotest.test_case "torn journal discarded" `Quick
      test_torn_journal_discarded;
    Alcotest.test_case "v1 ledger fixtures round-trip" `Quick
      test_ledger_fixtures_roundtrip;
    Alcotest.test_case "headerless meta restored from backup" `Quick
      test_headerless_meta_restored_from_backup;
    QCheck_alcotest.to_alcotest qcheck_meta_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_journal_roundtrip;
  ]
