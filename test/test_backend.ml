(* Backend equivalence: the filesystem, in-memory, and remote-peer
   backends must be observationally identical — same results for the
   same op sequence, same physical sizes (shared framing), and the
   same outcomes under injected write faults. *)

open Versioning_store
module Faults = Versioning_util.Faults

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let temp_dir () =
  let path = Filename.temp_file "dsvc_backend" "" in
  Sys.remove path;
  path

let digest_of = Content_hash.hex

(* ---- op sequences ---- *)

type op = Put of string | Get of string | Mem of string | Delete of string

(* Observed behaviour of one op: enough to compare backends without
   comparing error strings (those legitimately differ per backend). *)
let apply (b : Backend.t) op =
  match op with
  | Put content -> (
      match b.put ~digest:(digest_of content) content with
      | Ok () -> "put:ok"
      | Error _ -> "put:error")
  | Get content -> (
      match b.get ~digest:(digest_of content) with
      | Ok got -> "get:" ^ got
      | Error _ -> "get:absent")
  | Mem content ->
      if b.mem ~digest:(digest_of content) then "mem:yes" else "mem:no"
  | Delete content ->
      b.delete ~digest:(digest_of content);
      "deleted"

let final_state (b : Backend.t) =
  let listing = List.sort compare (b.list ()) in
  ( listing,
    b.total_bytes (),
    List.for_all (fun (d, _) -> b.mem ~digest:d) listing )

let run_sequence b ops = (List.map (apply b) ops, final_state b)

(* small closed universe of contents so ops collide meaningfully *)
let contents =
  [|
    "";
    "a";
    "alpha\nbeta\ngamma";
    String.make 400 'x';
    String.concat "\n" (List.init 40 (fun i -> "row " ^ string_of_int i));
    "\x00\x01\xff binary-ish \x7f";
  |]

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (pair (int_bound 3) (int_bound (Array.length contents - 1)))
    >|= List.map (fun (kind, i) ->
            let c = contents.(i) in
            match kind with
            | 0 -> Put c
            | 1 -> Get c
            | 2 -> Mem c
            | _ -> Delete c))

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Put c -> "put " ^ String.escaped (String.sub c 0 (min 8 (String.length c)))
         | Get c -> "get " ^ string_of_int (String.length c)
         | Mem c -> "mem " ^ string_of_int (String.length c)
         | Delete c -> "del " ^ string_of_int (String.length c))
       ops)

let with_fs_backend k =
  let dir = temp_dir () in
  let b = ok (Backend.fs ~dir) in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> k b)

let qcheck_fs_memory_equivalent =
  QCheck.Test.make ~name:"fs and memory backends are observationally equal"
    ~count:60
    (QCheck.make ~print:print_ops gen_ops)
    (fun ops ->
      Faults.reset ();
      with_fs_backend (fun fs ->
          let mem = Backend.memory () in
          run_sequence fs ops = run_sequence mem ops))

(* ---- equivalence under injected faults (deterministic cases) ---- *)

(* Both backends consult the ["object_store.write"] site only for a
   new digest (idempotent puts short-circuit), so arming the same
   fault before the same sequence must fail the same op and leave the
   same surviving state. Inside a batch both also stage their puts and
   consult ["object_store.sync"] once before publishing, so a fault
   there, or a crash mid-batch, must leave the same state too. *)
let fault_cases =
  [
    ("fail first write", "object_store.write", Faults.Fail "disk full", 0);
    ("fail third write", "object_store.write", Faults.Fail "disk full", 2);
    ("corrupt first write", "object_store.write", Faults.Corrupt 1, 0);
    ("corrupt second write", "object_store.write", Faults.Corrupt 5, 1);
    ("torn second write", "object_store.write", Faults.Torn 0.5, 1);
    ("fail the sync", "object_store.sync", Faults.Fail "sync failed", 0);
    ("crash at the sync", "object_store.sync", Faults.Crash, 0);
  ]

let fault_ops =
  [
    Put contents.(2);
    Get contents.(2);
    Put contents.(3);
    Put contents.(2);
    (* idempotent: no site consult *)
    Put contents.(4);
    Get contents.(3);
    Get contents.(4);
    Mem contents.(2);
    Mem contents.(4);
  ]

(* The ops one by one, or as one batch; an injected crash ends the
   sequence, as it would end the process. *)
let run_faulted ~batched b =
  let ops () = List.map (apply b) fault_ops in
  let outcome =
    match
      if batched then
        match b.Backend.batch (fun () -> Ok (ops ())) with
        | Ok seen -> "ok:" ^ String.concat "," seen
        | Error _ -> "error"
      else "ok:" ^ String.concat "," (ops ())
    with
    | s -> s
    | exception Faults.Injected _ -> "crashed"
  in
  (outcome, final_state b)

let test_fault_equivalence () =
  List.iter
    (fun batched ->
      List.iter
        (fun (label, site, action, after) ->
          let label = (if batched then "batched, " else "") ^ label in
          let run b =
            Faults.reset ();
            Faults.arm ~site ~after action;
            let r = run_faulted ~batched b in
            Faults.reset ();
            r
          in
          let from_fs = with_fs_backend run in
          let from_mem = run (Backend.memory ()) in
          Alcotest.(check bool)
            (label ^ ": identical observable behaviour")
            true
            (from_fs = from_mem))
        fault_cases)
    [ false; true ]

(* ---- the remote backend against a live peer ---- *)

let with_remote k =
  let repo = ok (Repo.init ~path:(temp_dir ())) in
  let port = 19900 + (Unix.getpid () mod 800) in
  let server =
    Thread.create
      (fun () -> ignore (Server.serve repo ~port ~max_requests:64 ()))
      ()
  in
  Unix.sleepf 0.2;
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  let finally () =
    let rec drain n =
      if n > 0 then
        match Client.request client ~meth:"GET" ~path:"/health" () with
        | Ok _ -> drain (n - 1)
        | Error _ -> ()
    in
    drain 64;
    Thread.join server
  in
  Fun.protect ~finally (fun () -> k (Client.backend client))

let test_remote_matches_memory () =
  Faults.reset ();
  let ops =
    [
      Put contents.(2);
      Get contents.(2);
      Mem contents.(2);
      Put contents.(3);
      Put contents.(2);
      Get contents.(5);
      Delete contents.(3);
      Mem contents.(3);
      Get contents.(2);
    ]
  in
  with_remote (fun remote ->
      let mem = Backend.memory () in
      Alcotest.(check bool) "remote equals memory on the same ops" true
        (run_sequence remote ops = run_sequence mem ops))

let test_remote_put_rejects_wrong_digest () =
  with_remote (fun remote ->
      match remote.Backend.put ~digest:(digest_of "something else") "payload" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "peer must refuse a body that fails its digest")

let test_quarantine_hides_blob () =
  (* same observable effect on both local backends *)
  with_fs_backend (fun fs ->
      let mem = Backend.memory () in
      List.iter
        (fun (b : Backend.t) ->
          let c = contents.(2) in
          let digest = digest_of c in
          (match b.put ~digest c with
          | Ok () -> ()
          | Error e -> Alcotest.failf "put: %s" e);
          (match b.quarantine ~digest with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "quarantine: %s" e);
          Alcotest.(check bool) (b.name ^ ": gone after quarantine") false
            (b.mem ~digest);
          Alcotest.(check bool) (b.name ^ ": not listed") true
            (not (List.mem_assoc digest (b.list ()))))
        [ fs; mem ])

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_fs_memory_equivalent;
    Alcotest.test_case "equivalent under injected write faults" `Quick
      test_fault_equivalence;
    Alcotest.test_case "remote backend equals memory" `Quick
      test_remote_matches_memory;
    Alcotest.test_case "remote rejects digest mismatch" `Quick
      test_remote_put_rejects_wrong_digest;
    Alcotest.test_case "quarantine equivalence" `Quick
      test_quarantine_hides_blob;
  ]
