(* The storage-tree walk: [Repo.materialize_all] against per-version
   rebuilds on random, partly broken plans, and the read-once promise
   of the passes built on it. *)

open Versioning_store
module IM = Meta.Int_map
module Line_diff = Versioning_delta.Line_diff

let ( let* ) = Result.bind

let temp_dir () =
  let path = Filename.temp_file "dsvc_walk" "" in
  Sys.remove path;
  path

let ok = function Ok v -> v | Error e -> Alcotest.failf "repo error: %s" e

(* ---- the reference: one rebuild per version ----

   These are the per-version loops the walk replaced, over the public
   [checkout_uncached] (one version's cache-free rebuild under the
   installed plan). *)

let ref_check_all_versions repo (stored : Meta.stored IM.t) =
  IM.fold
    (fun v _ acc ->
      let* () = acc in
      match Repo.checkout_uncached repo v with
      | Ok _ -> Ok ()
      | Error e -> Error (Printf.sprintf "version %d: %s" v e))
    stored (Ok ())

let ref_all_contents repo n =
  let arr = Array.make (n + 1) "" in
  let rec go v =
    if v > n then Ok arr
    else
      let* c = Repo.checkout_uncached repo v in
      arr.(v) <- c;
      go (v + 1)
  in
  go 1

let ref_verify repo (stored : Meta.stored IM.t) =
  let store = Repo.object_store repo in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  IM.iter
    (fun v s ->
      let digest = match s with Meta.Full d | Meta.Delta_from (_, d) -> d in
      match Object_store.get store digest with
      | Error e -> note "version %d: object unreadable (%s)" v e
      | Ok _ -> ())
    stored;
  IM.iter
    (fun v _ ->
      match Repo.checkout_uncached repo v with
      | Ok _ -> ()
      | Error e -> note "version %d: checkout failed (%s)" v e)
    stored;
  List.iter
    (fun (c : Repo.commit_info) ->
      List.iter
        (fun p ->
          if not (IM.mem p stored) then
            note "version %d: missing parent %d" c.id p)
        c.parents)
    (Repo.log repo);
  if !problems = [] then Ok () else Error (List.rev !problems)

(* ---- random plans ----

   Versions 1..n, each with intended content [content v]. A version is
   stored in full or as a delta from a parent drawn from 1..n+2: ids
   past n are missing, and a parent at or after the child can close a
   self-loop or a longer cycle. Its object is good, missing, corrupt
   (the backend holds other bytes under the digest), a delta script
   cut against a different base, or bytes that do not decode. *)

type obj = Good | Missing | Corrupt | Misfit | Garbage
type spec = { parent : int option; obj : obj; lines : int }

let content v lines =
  String.concat "\n"
    (List.init lines (fun i -> Printf.sprintf "row %d of %d" (i * (v mod 3)) v))

let gen_plan =
  QCheck.Gen.(
    int_range 1 12 >>= fun n ->
    list_repeat n
      (map3
         (fun parent obj lines -> { parent; obj; lines })
         (frequency
            [ (1, return None); (3, map Option.some (int_range 1 (n + 2))) ])
         (frequency
            [
              (12, return Good);
              (1, return Missing);
              (1, return Corrupt);
              (1, return Misfit);
              (1, return Garbage);
            ])
         (int_range 1 6)))

let print_plan specs =
  String.concat "; "
    (List.mapi
       (fun i s ->
         Printf.sprintf "%d:%s/%s/%d" (i + 1)
           (match s.parent with None -> "full" | Some p -> string_of_int p)
           (match s.obj with
           | Good -> "good"
           | Missing -> "missing"
           | Corrupt -> "corrupt"
           | Misfit -> "misfit"
           | Garbage -> "garbage")
           s.lines)
       specs)

(* Write [specs]' objects into the repository's store and install the
   plan, so [checkout_uncached] and [verify] see it. *)
let install repo specs =
  let store = Repo.object_store repo in
  let backend = Object_store.backend store in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let intended v =
    if v >= 1 && v <= n then content v specs.(v - 1).lines else ""
  in
  let put payload = ok (Object_store.put store payload) in
  let stored =
    Array.to_list specs
    |> List.mapi (fun i s ->
           let v = i + 1 in
           let payload =
             match s.parent with
             | None -> intended v
             | Some p ->
                 let base = if s.obj = Misfit then intended p ^ "\nx" else intended p in
                 Line_diff.encode (Line_diff.diff base (intended v))
           in
           let digest =
             match s.obj with
             | Good | Misfit -> put payload
             | Garbage -> put (Printf.sprintf "no script %d" v)
             | Missing -> Content_hash.hex (Printf.sprintf "never stored %d" v)
             | Corrupt ->
                 let d = Content_hash.hex (Printf.sprintf "tampered %d" v) in
                 ok (backend.Backend.put ~digest:d "other bytes");
                 d
           in
           ( v,
             match s.parent with
             | None -> Meta.Full digest
             | Some p -> Meta.Delta_from (p, digest) ))
    |> List.to_seq |> IM.of_seq
  in
  let meta =
    { Meta.empty with stored; next_id = n + 1; generation = Repo.generation repo + 1 }
  in
  ignore (ok (Repo.adopt_meta repo (Meta.render meta)));
  stored

let with_repo f =
  let repo = ok (Repo.init_with ~store:(Object_store.memory ()) ~path:(temp_dir ())) in
  Fun.protect ~finally:(fun () -> Repo.close repo) (fun () -> f repo)

let result_str = function Ok c -> "Ok " ^ String.escaped c | Error e -> "Error " ^ e

let qcheck_walk_equivalent =
  QCheck.Test.make ~count:150
    ~name:"walk ≡ per-version rebuild, incl. check_all_versions and verify"
    (QCheck.make ~print:print_plan gen_plan)
    (fun specs ->
      with_repo (fun repo ->
          let stored = install repo specs in
          let seen = ref IM.empty in
          Repo.materialize_all repo stored
            ~get:(Object_store.get (Repo.object_store repo))
            (fun v r ->
              if IM.mem v !seen then QCheck.Test.fail_reportf "version %d visited twice" v;
              seen := IM.add v r !seen);
          IM.iter
            (fun v _ ->
              let expected = Repo.checkout_uncached repo v in
              match IM.find_opt v !seen with
              | None -> QCheck.Test.fail_reportf "version %d never visited" v
              | Some r when r <> expected ->
                  QCheck.Test.fail_reportf "version %d: walk %s, rebuild %s" v
                    (result_str r) (result_str expected)
              | Some _ -> ())
            stored;
          let contents =
            Result.map snd (Repo.reveal_graph repo ~jobs:1 ())
          in
          IM.cardinal !seen = IM.cardinal stored
          && Repo.check_all_versions repo stored = ref_check_all_versions repo stored
          && Repo.verify repo = ref_verify repo stored
          && contents = ref_all_contents repo (List.length specs)))

(* ---- read once ---- *)

(* A memory backend that counts [get]s per digest. *)
let counting_backend () =
  let b = Backend.memory () in
  let gets = Hashtbl.create 64 in
  ( {
      b with
      Backend.get =
        (fun ~digest ->
          Hashtbl.replace gets digest
            (1 + Option.value (Hashtbl.find_opt gets digest) ~default:0);
          b.Backend.get ~digest);
    },
    gets )

(* A branching history: 2 and 5 fork from 1 and 6 merges 5 and 3;
   4 and 8 repeat their parents' 21 lines, so their deltas are one
   shared object. *)
let history =
  let rows k = String.concat "\n" (List.init k (fun i -> Printf.sprintf "r%d" i)) in
  [
    ("1", [], rows 20);
    ("2", [ 1 ], rows 20 ^ "\nb");
    ("3", [ 2 ], rows 21);
    ("4", [ 3 ], rows 21);
    ("5", [ 1 ], "head\n" ^ rows 20);
    ("6", [ 5; 3 ], "head\n" ^ rows 21);
    ("7", [ 6 ], "head\n" ^ rows 20);
    ("8", [ 7 ], "head\n" ^ rows 20);
  ]

let check_once what gets expected =
  let got =
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) gets [] |> List.sort compare
  in
  Alcotest.(check (list (pair string int))) what (List.sort compare expected) got

let uniq l = List.sort_uniq compare l

let test_read_once () =
  let backend, gets = counting_backend () in
  let repo =
    ok (Repo.init_with ~store:(Object_store.of_backend backend) ~path:(temp_dir ()))
  in
  Fun.protect ~finally:(fun () -> Repo.close repo) @@ fun () ->
  ignore (ok (Repo.import_versions repo history));
  Alcotest.(check int) "a chained batch import reads nothing" 0 (Hashtbl.length gets);
  let old_digests = uniq (Repo.referenced_digests repo) in
  Alcotest.(check bool) "some delta object is shared" true
    (List.length old_digests < List.length history);
  (* the same entries committed one at a time store the same objects *)
  let single = ok (Repo.init_with ~store:(Object_store.memory ()) ~path:(temp_dir ())) in
  List.iter
    (fun (message, parents, c) -> ignore (ok (Repo.commit single ~message ~parents c)))
    history;
  Alcotest.(check (list string)) "batch digests = one-at-a-time digests"
    (Repo.referenced_digests single) (Repo.referenced_digests repo);
  Alcotest.(check (list (pair int int))) "batch plan = one-at-a-time plan"
    (Repo.storage_parents single) (Repo.storage_parents repo);
  Repo.close single;
  Hashtbl.reset gets;
  (match Repo.verify repo with
  | Ok () -> ()
  | Error ps -> Alcotest.failf "verify: %s" (String.concat "; " ps));
  check_once "verify reads each referenced digest once" gets
    (List.map (fun d -> (d, 1)) old_digests);
  Hashtbl.reset gets;
  ignore (ok (Repo.optimize repo ~jobs:1 Repo.Min_recreation));
  let new_digests = uniq (Repo.referenced_digests repo) in
  (* the load pass reads the old plan's objects once, the verify pass
     the new plan's once, and the closing [stats] the new plan's once
     more *)
  let count d =
    (if List.mem d old_digests then 1 else 0)
    + if List.mem d new_digests then 2 else 0
  in
  check_once "optimize reads each digest once per pass" gets
    (List.map (fun d -> (d, count d)) (uniq (old_digests @ new_digests)))

(* ---- checkout paths ----

   The cached checkout starts its replay from the stored full object
   (cold), from a cached ancestor's content (partial hit) or returns
   the cached content (pure hit). All three must give the same bytes
   as a cache-free rebuild. *)

let cache_moves repo f =
  let (before : Repo.cache_stats) = Repo.cache_stats repo in
  let r = f () in
  let after = Repo.cache_stats repo in
  ( r,
    ( after.hits - before.hits,
      after.partial_hits - before.partial_hits,
      after.misses - before.misses ) )

let test_checkout_paths () =
  with_repo @@ fun repo ->
  ignore (ok (Repo.import_versions repo history));
  (* child -> its delta's base *)
  let parents =
    List.filter_map
      (fun (p, c) -> if p = 0 then None else Some (c, p))
      (Repo.storage_parents repo)
  in
  let clear () =
    Repo.set_cache_slots repo 0;
    Repo.set_cache_slots repo Repo.default_cache_slots
  in
  let moves = Alcotest.(pair string (triple int int int)) in
  List.iteri
    (fun i (_, _, expected) ->
      let v = i + 1 in
      let what path = Printf.sprintf "version %d, %s" v path in
      Alcotest.(check string) (what "uncached") expected (ok (Repo.checkout_uncached repo v));
      clear ();
      let r, m = cache_moves repo (fun () -> ok (Repo.checkout repo v)) in
      Alcotest.check moves (what "cold") (expected, (0, 0, 1)) (r, m);
      (match List.assoc_opt v parents with
      | None -> ()
      | Some p ->
          clear ();
          ignore (ok (Repo.checkout repo p));
          let r, m = cache_moves repo (fun () -> ok (Repo.checkout repo v)) in
          Alcotest.check moves (what "partial hit") (expected, (0, 1, 0)) (r, m));
      let r, m = cache_moves repo (fun () -> ok (Repo.checkout repo v)) in
      Alcotest.check moves (what "pure hit") (expected, (1, 0, 0)) (r, m))
    history;
  Alcotest.(check bool) "some version has a delta parent" true (parents <> [])

(* A stored delta that does not fit its base, or does not parse, is an
   [Error] from checkout, verify and fsck — with these messages — and
   repair cannot recover its version. *)
let test_misfit_is_error () =
  let store = Object_store.memory () and path = temp_dir () in
  let repo = ok (Repo.init_with ~store ~path) in
  let put payload = ok (Object_store.put store payload) in
  let delta a b = put (Line_diff.encode (Line_diff.diff a b)) in
  let stored =
    IM.of_seq
      (List.to_seq
         [
           (1, Meta.Full (put "a\nb\nc"));
           (2, Meta.Delta_from (1, delta "a\nb" "a\nB"));
           (3, Meta.Delta_from (1, delta "a\nb\nc\nd" "a"));
           (4, Meta.Delta_from (1, put "not a script"));
         ])
  in
  let meta =
    { Meta.empty with stored; next_id = 5; generation = Repo.generation repo + 1 }
  in
  ignore (ok (Repo.adopt_meta repo (Meta.render meta)));
  let errors =
    [
      (2, "Line_diff.apply: script does not consume the whole source");
      (3, "Line_diff.apply: source too short");
      (4, "Line_diff.decode: bad header");
    ]
  in
  let problems =
    List.map (fun (v, e) -> Printf.sprintf "version %d: checkout failed (%s)" v e) errors
  in
  List.iter
    (fun (v, e) ->
      Alcotest.(check (result string string))
        (Printf.sprintf "checkout %d" v) (Error e) (Repo.checkout repo v);
      Alcotest.(check (result string string))
        (Printf.sprintf "uncached checkout %d" v) (Error e) (Repo.checkout_uncached repo v))
    errors;
  Alcotest.(check (result unit (list string))) "verify" (Error problems) (Repo.verify repo);
  Repo.close repo;
  let fsck ~repair = ok (Repo.fsck_with ~store ~path ~repair) in
  Alcotest.(check (list string)) "fsck" problems (fsck ~repair:false).problems;
  let repaired = fsck ~repair:true in
  Alcotest.(check (list string)) "fsck --repair: unrecoverable"
    (List.map (fun (v, _) -> Printf.sprintf "version %d is unrecoverable" v) errors)
    repaired.actions;
  Alcotest.(check (list string)) "fsck --repair: still failing" problems repaired.problems

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_walk_equivalent;
    Alcotest.test_case "each pass reads each object once" `Quick test_read_once;
    Alcotest.test_case "cold, partial and pure-hit checkouts agree" `Quick
      test_checkout_paths;
    Alcotest.test_case "a misfit delta is an error, not an exception" `Quick
      test_misfit_is_error;
  ]
