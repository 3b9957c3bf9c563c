(* dsvc-lint: one known-bad and one suppressed/allowed fixture per
   rule, config-parser behaviour, and a scan of the real source tree
   (which must be clean — the same gate CI applies). *)

open Dsvc_lint

(* A config mirroring the checked-in lint.toml, built through the
   parser so the TOML subset is exercised too. *)
let config =
  match
    Lint_config.parse
      {|
# fixture config
[R1-raw-write]
allow = ["lib/util/fsutil.ml", "lib/store/fsutil.ml"]

[R2-unsafe-index]
allow = ["lib/delta/chunker.ml", "lib/delta/compress.ml"]

[R3-domain-spawn]
allow = ["lib/util/pool.ml"]

[R3-fork]
allow = ["test/lock_probe.ml"]

[R5-nondet]
scope = ["lib/core/", "lib/workload/"]
|}
  with
  | Ok c -> c
  | Error e -> failwith e

let rules_of ~file src =
  List.map
    (fun d -> d.Lint_rules.rule)
    (Lint_rules.check_source ~config ~filename:file src)

let check_rules msg ~file src expected =
  Alcotest.(check (list string)) msg expected (rules_of ~file src)

(* ---- R1: raw write primitives ---- *)

let test_r1 () =
  check_rules "open_out flagged" ~file:"lib/store/archive.ml"
    {|let f () = let oc = open_out "x" in close_out oc|} [ "R1-raw-write" ];
  check_rules "Out_channel opener flagged" ~file:"bin/dsvc.ml"
    {|let f () = Out_channel.with_open_bin "x" ignore|} [ "R1-raw-write" ];
  check_rules "openfile with write flags flagged" ~file:"lib/store/repo.ml"
    {|let f () = Unix.openfile "x" [ Unix.O_WRONLY ] 0o644|}
    [ "R1-raw-write" ];
  check_rules "read-only openfile fine" ~file:"lib/store/repo.ml"
    {|let f () = Unix.openfile "x" [ Unix.O_RDONLY ] 0|} [];
  check_rules "suppression comment honoured" ~file:"lib/store/archive.ml"
    {|(* lint: raw-write-ok scratch file *)
let f () = let oc = open_out "x" in close_out oc|}
    [];
  check_rules "allowlisted file clean" ~file:"lib/util/fsutil.ml"
    {|let f () = let oc = open_out "x" in close_out oc|} []

(* ---- R2: unsafe indexing ---- *)

let test_r2 () =
  check_rules "unsafe_get in allowlisted file needs a comment"
    ~file:"lib/delta/compress.ml"
    {|let f s = String.unsafe_get s 0|} [ "R2-unsafe-index" ];
  check_rules "unsafe-ok comment satisfies the rule"
    ~file:"lib/delta/compress.ml"
    {|(* lint: unsafe-ok caller guarantees s is non-empty *)
let f s = String.unsafe_get s 0|}
    [];
  check_rules "outside the allowlist no comment helps"
    ~file:"lib/core/exact.ml"
    {|(* lint: unsafe-ok nice try *)
let f a = Array.unsafe_get a 0|}
    [ "R2-unsafe-index" ];
  check_rules "unsafe_set flagged too" ~file:"lib/store/repo.ml"
    {|let f b = Bytes.unsafe_set b 0 'x'|} [ "R2-unsafe-index" ]

(* ---- R3: domains and forks ---- *)

let test_r3 () =
  check_rules "Domain.spawn outside Pool" ~file:"lib/core/exact.ml"
    {|let f () = Domain.spawn (fun () -> ())|} [ "R3-domain-spawn" ];
  check_rules "Domain.spawn in Pool fine" ~file:"lib/util/pool.ml"
    {|let f () = Domain.spawn (fun () -> ())|} [];
  check_rules "Unix.fork outside the probe" ~file:"lib/store/server.ml"
    {|let f () = Unix.fork ()|} [ "R3-fork" ];
  check_rules "Unix.fork in the probe fine" ~file:"test/lock_probe.ml"
    {|let f () = Unix.fork ()|} []

(* ---- R4: exception swallowing ---- *)

let test_r4 () =
  check_rules "catch-all wildcard flagged" ~file:"lib/store/server.ml"
    {|let f g = try g () with _ -> 0|} [ "R4-catch-all" ];
  check_rules "bound-but-dropped exception flagged"
    ~file:"lib/store/server.ml" {|let f g = try g () with e -> 0|}
    [ "R4-catch-all" ];
  check_rules "used exception fine" ~file:"lib/store/server.ml"
    {|let f g = try g () with e -> print_endline (Printexc.to_string e); 0|}
    [];
  check_rules "specific exception fine" ~file:"lib/store/server.ml"
    {|let f g = try g () with Not_found -> 0|} [];
  check_rules "swallow-ok suppression honoured" ~file:"lib/store/server.ml"
    {|let f g =
  (* lint: swallow-ok best-effort cleanup on shutdown *)
  try g () with _ -> 0|}
    []

(* ---- R5: nondeterminism in the solver tiers ---- *)

let test_r5 () =
  check_rules "gettimeofday in lib/core flagged" ~file:"lib/core/heur.ml"
    {|let f () = Unix.gettimeofday ()|} [ "R5-nondet" ];
  check_rules "Hashtbl.hash in lib/workload flagged"
    ~file:"lib/workload/gen.ml" {|let f x = Hashtbl.hash x|} [ "R5-nondet" ];
  check_rules "polymorphic compare on float literal flagged"
    ~file:"lib/core/heur.ml" {|let f x = compare x 1.0|} [ "R5-nondet" ];
  check_rules "same code outside the scope is fine" ~file:"lib/store/repo.ml"
    {|let f () = Unix.gettimeofday ()|} [];
  (* telemetry lives in lib/obs on purpose: the identical clock read
     inside a solver tier must still trip, ledger or no ledger *)
  check_rules "telemetry-style clock read in lib/core still flagged"
    ~file:"lib/core/lmg.ml"
    {|let observe_recreation () =
  let t0 = Unix.gettimeofday () in
  t0|}
    [ "R5-nondet" ];
  check_rules "telemetry's own clock read in lib/obs is fine"
    ~file:"lib/obs/telemetry.ml"
    {|let clock () = if enabled () then Some (Unix.gettimeofday ()) else None|}
    [];
  check_rules "nondet-ok suppression honoured" ~file:"lib/core/heur.ml"
    {|(* lint: nondet-ok wall-clock deadline only *)
let f () = Unix.gettimeofday ()|}
    []

(* ---- R6: module-level mutable state near Pool regions ---- *)

let test_r6 () =
  check_rules "toplevel Hashtbl in a Pool-using module flagged"
    ~file:"lib/store/par.ml"
    {|module Pool = Versioning_util.Pool
let cache = Hashtbl.create 8
let run xs = Pool.parallel_map (fun x -> x) xs|}
    [ "R6-toplevel-mutable" ];
  check_rules "same state without any Pool call site is fine"
    ~file:"lib/store/seq.ml"
    {|let cache = Hashtbl.create 8
let run xs = List.map (fun x -> x) xs|}
    [];
  check_rules "mutable-ok suppression honoured" ~file:"lib/store/par.ml"
    {|module Pool = Versioning_util.Pool
(* lint: mutable-ok guarded by a mutex *)
let cache = Hashtbl.create 8
let run xs = Pool.parallel_map (fun x -> x) xs|}
    [];
  (* cross-file reachability: A uses the pool and calls B; B's state
     is flagged even though B itself never mentions Pool *)
  let diags =
    Lint_rules.check_tree ~config
      [
        ( "lib/store/a.ml",
          {|module Pool = Versioning_util.Pool
let run xs = Pool.parallel_map B.work xs|} );
        ("lib/store/b.ml", {|let seen = ref 0
let work x = incr seen; x|});
        ("lib/store/c.ml", {|let alone = ref 0|});
      ]
  in
  Alcotest.(check (list (pair string string)))
    "B flagged, unreferenced C not"
    [ ("lib/store/b.ml", "R6-toplevel-mutable") ]
    (List.map (fun d -> (d.Lint_rules.file, d.Lint_rules.rule)) diags)

(* ---- the interprocedural rules: R7/R8/R9 over the call graph ---- *)

(* check_tree runs every rule; the helpers below project the result
   down to one rule family so an R9 fixture's expected list is not
   polluted by the R6 diagnostics the same mutable binding earns. *)
let tree_rules ?(only = "") ?(cfg = config) files =
  Lint_rules.check_tree ~config:cfg files
  |> List.filter (fun d -> String.starts_with ~prefix:only d.Lint_rules.rule)
  |> List.map (fun d -> (d.Lint_rules.file, d.Lint_rules.rule))

let check_tree_rules msg ?only ?cfg files expected =
  Alcotest.(check (list (pair string string)))
    msg expected
    (tree_rules ?only ?cfg files)

let parse_cfg s =
  match Lint_config.parse s with Ok c -> c | Error e -> failwith e

(* The callgraph/effects engine itself: nested nodes get dotted names,
   Blocks propagates over direct calls but never over deferred ones,
   Locks stays below Blocks, and the transitive acquire set and the
   witness chain come out of the same fixpoint. *)
let test_callgraph_engine () =
  let g =
    Callgraph.build
      [
        ( "lib/store/eng.ml",
          {|let leaf () = Unix.sleepf 0.1
let mid () = leaf ()
let top () = mid ()
let handoff () = Thread.create (fun () -> leaf ()) ()
let locker m = Mutex.lock m; Mutex.unlock m|}
        );
      ]
  in
  let eff = Effects.compute g in
  let lvl id = Effects.level_name (Effects.node_level eff id) in
  Alcotest.(check string) "seeded leaf blocks" "blocks" (lvl "Eng.leaf");
  Alcotest.(check string) "one hop propagates" "blocks" (lvl "Eng.mid");
  Alcotest.(check string) "fixpoint reaches the top" "blocks" (lvl "Eng.top");
  Alcotest.(check string) "deferred body does not leak into the spawner"
    "pure" (lvl "Eng.handoff");
  Alcotest.(check string) "locking stays below blocking" "locks"
    (lvl "Eng.locker");
  Alcotest.(check (list string))
    "witness chain bottoms out at the external seed"
    [ "Eng.top"; "Eng.mid"; "Eng.leaf"; "Unix.sleepf" ]
    (Effects.chain g eff "Eng.top");
  Alcotest.(check (list string))
    "transitive acquire set" [ "Eng.m" ]
    (Effects.SS.elements (Effects.node_acq eff "Eng.locker"))

(* R7: the acceptance fixture — a reactor callback that calls the
   request handler directly (the executor dispatch deleted) must trip;
   routing the same call through the worker handoff must not. *)
let test_r7 () =
  let direct_dispatch =
    {|let handle fd = Repo.commit fd

let serve loop fd =
  Evloop.add loop fd ~read:true ~write:false (fun _ -> handle fd)|}
  in
  check_tree_rules "handler called directly from the reactor trips R7"
    ~only:"R7-"
    [ ("lib/store/srv.ml", direct_dispatch) ]
    [ ("lib/store/srv.ml", "R7-no-blocking-in-reactor") ];
  check_tree_rules "executor handoff keeps the reactor clean" ~only:"R7-"
    [
      ( "lib/store/srv.ml",
        {|let handle fd = Repo.commit fd

let serve loop fd =
  Evloop.add loop fd ~read:true ~write:false (fun _ ->
      submit (fun () -> handle fd))|}
      );
    ]
    [];
  (* blocking callee in another file: the finding lands on the call
     edge in the reactor's file, not inside the callee (which is fine
     for executor-side callers) *)
  check_tree_rules "cross-file blocking callee reported at the call edge"
    ~only:"R7-"
    [
      ( "lib/store/srv.ml",
        {|let serve loop fd =
  Evloop.add loop fd ~read:true ~write:false (fun _ -> Work.slow fd)|}
      );
      ("lib/store/work.ml", {|let slow fd = Unix.sleep fd|});
    ]
    [ ("lib/store/srv.ml", "R7-no-blocking-in-reactor") ];
  check_tree_rules "reactor-ok suppression honoured" ~only:"R7-"
    [
      ( "lib/store/srv.ml",
        {|(* lint: reactor-ok fixture justification *)
let handle fd = Repo.commit fd

let serve loop fd =
  Evloop.add loop fd ~read:true ~write:false (fun _ -> handle fd)|}
      );
    ]
    [];
  (* timer callbacks are reactor roots too (DESIGN.md §16): a sampler
     tick that persists the ring in-line blocks the loop and trips R7;
     handing the flush to the executor keeps the tick Locks-only. *)
  check_tree_rules "blocking sampler tick trips R7" ~only:"R7-"
    [
      ( "lib/store/srv.ml",
        {|let flush repo = Fsutil.write_file "ts" repo

let serve loop repo =
  ignore (Evloop.add_timer loop ~period:5.0 (fun () -> flush repo))|}
      );
    ]
    [ ("lib/store/srv.ml", "R7-no-blocking-in-reactor") ];
  check_tree_rules "sampler tick defers persistence to the executor"
    ~only:"R7-"
    [
      ( "lib/store/srv.ml",
        {|let flush repo = Fsutil.write_file "ts" repo

let serve loop repo =
  ignore
    (Evloop.add_timer loop ~period:5.0 (fun () ->
         submit (fun () -> flush repo)))|}
      );
    ]
    []

(* R8: unreleased locks, double acquisition (direct and through a
   callee), and the configured global lock order. *)
let test_r8 () =
  check_tree_rules "lock without unlock on some path" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
let f () = Mutex.lock m|} );
    ]
    [ ("lib/store/locky.ml", "R8-unreleased-lock") ];
  check_tree_rules "balanced lock/unlock is fine" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
let f () = Mutex.lock m; Mutex.unlock m|} );
    ]
    [];
  check_tree_rules "Fun.protect ~finally counts as the release" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
let f g =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) g|} );
    ]
    [];
  check_tree_rules "relock while held" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
let f () = Mutex.lock m; Mutex.lock m; Mutex.unlock m; Mutex.unlock m|}
      );
    ]
    [ ("lib/store/locky.ml", "R8-double-acquire") ];
  check_tree_rules "double acquire through a callee" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
let g () = Mutex.lock m; Mutex.unlock m
let f () = Mutex.lock m; g (); Mutex.unlock m|}
      );
    ]
    [ ("lib/store/locky.ml", "R8-double-acquire") ];
  let cfg_order =
    parse_cfg "[R8-lock-order]\norder = [\"Locky.outer\", \"Locky.inner\"]"
  in
  check_tree_rules "acquiring against the declared order" ~only:"R8-"
    ~cfg:cfg_order
    [
      ( "lib/store/locky.ml",
        {|let outer = Mutex.create ()
let inner = Mutex.create ()
let f () =
  Mutex.lock inner;
  Mutex.lock outer;
  Mutex.unlock outer;
  Mutex.unlock inner|}
      );
    ]
    [ ("lib/store/locky.ml", "R8-lock-order") ];
  check_tree_rules "acquiring along the declared order is fine" ~only:"R8-"
    ~cfg:cfg_order
    [
      ( "lib/store/locky.ml",
        {|let outer = Mutex.create ()
let inner = Mutex.create ()
let f () =
  Mutex.lock outer;
  Mutex.lock inner;
  Mutex.unlock inner;
  Mutex.unlock outer|}
      );
    ]
    [];
  check_tree_rules "lock-ok suppression honoured" ~only:"R8-"
    [
      ( "lib/store/locky.ml",
        {|let m = Mutex.create ()
(* lint: lock-ok fixture justification *)
let f () = Mutex.lock m|} );
    ]
    []

(* R9: a toplevel mutable binding reached from both the pool-task side
   and the thread side of the program, in a module with no mutex. *)
let r9_driver =
  {|let run xs =
  let t = Thread.create (fun () -> Shared.bump ()) () in
  let ys = Pool.parallel_map (fun x -> Shared.bump (); x) xs in
  Thread.join t;
  ys|}

let test_r9 () =
  check_tree_rules "unguarded state reached from both sides" ~only:"R9-"
    [
      ("lib/store/shared.ml", {|let seen = ref 0
let bump () = incr seen|});
      ("lib/store/drv.ml", r9_driver);
    ]
    [ ("lib/store/shared.ml", "R9-shared-state") ];
  check_tree_rules "a mutex in the module counts as guarded" ~only:"R9-"
    [
      ( "lib/store/shared.ml",
        {|let m = Mutex.create ()
let seen = ref 0
let bump () = Mutex.lock m; incr seen; Mutex.unlock m|}
      );
      ("lib/store/drv.ml", r9_driver);
    ]
    [];
  check_tree_rules "task-only access is not shared" ~only:"R9-"
    [
      ("lib/store/shared.ml", {|let seen = ref 0
let bump () = incr seen|});
      ( "lib/store/drv.ml",
        {|let run xs = Pool.parallel_map (fun x -> Shared.bump (); x) xs|}
      );
    ]
    [];
  check_tree_rules "shared-ok suppression honoured" ~only:"R9-"
    [
      ( "lib/store/shared.ml",
        {|(* lint: shared-ok fixture justification *)
let seen = ref 0
let bump () = incr seen|} );
      ("lib/store/drv.ml", r9_driver);
    ]
    []

(* ---- parse errors and config errors ---- *)

let test_parse_error () =
  check_rules "unparseable source reported" ~file:"lib/store/bad.ml"
    "let let let" [ "parse-error" ]

let test_config_errors () =
  (match Lint_config.parse "[R1-raw-write]\nallow = nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed list must be rejected");
  (match Lint_config.parse "allow = [\"x\"]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key outside a section must be rejected");
  (match Lint_config.parse "[R99-bogus]\nallow = [\"x\"]" with
  | Error e ->
      Alcotest.(check bool) "unknown section error names the section" true
        (let rec has i =
           i + 9 <= String.length e
           && (String.sub e i 9 = "R99-bogus" || has (i + 1))
         in
         has 0)
  | Ok _ -> Alcotest.fail "unknown section must be rejected");
  (match Lint_config.parse "[R1-raw-write]\nregister = [\"Evloop.add\"]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key invalid for its section must be rejected");
  (match
     Lint_config.parse "[R7-no-blocking-in-reactor]\nregister = [\"Evloop.add\"]"
   with
  | Ok c ->
      Alcotest.(check (list string))
        "register list round-trips" [ "Evloop.add" ]
        (Lint_config.names_for c ~rule:"R7-no-blocking-in-reactor"
           ~key:"register" ~default:[])
  | Error e -> Alcotest.failf "register in its own section must parse: %s" e);
  match Lint_config.parse "# only comments\n\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "empty config must parse: %s" e

let test_config_stale_path () =
  (* an allow entry pointing at nothing on disk is a hard config
     error, not a silently-dead exemption *)
  let stale = parse_cfg "[R1-raw-write]\nallow = [\"lib/nope/gone.ml\"]" in
  (match Lint_config.validate ~root:".." stale with
  | Error e ->
      Alcotest.(check bool) "error names the stale path" true
        (let needle = "gone.ml" in
         let rec has i =
           i + String.length needle <= String.length e
           && (String.sub e i (String.length needle) = needle || has (i + 1))
         in
         has 0)
  | Ok () -> Alcotest.fail "stale allow path must fail validation");
  (* the same check accepts a path that exists (run against the
     mirrored source tree when present) *)
  if Sys.file_exists "../lib/util/fsutil.ml" then
    let live = parse_cfg "[R1-raw-write]\nallow = [\"lib/util/fsutil.ml\"]" in
    match Lint_config.validate ~root:".." live with
    | Ok () -> ()
    | Error e -> Alcotest.failf "live path must validate: %s" e

let test_suppression_window () =
  (* a suppression covers its own lines and the line right after; two
     lines down it no longer applies *)
  check_rules "comment two lines above does not suppress"
    ~file:"lib/store/archive.ml"
    {|(* lint: raw-write-ok too far away *)

let f () = let oc = open_out "x" in close_out oc|}
    [ "R1-raw-write" ]

(* ---- the real tree is clean ---- *)

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.fold_left
         (fun acc entry ->
           if entry = "_build" || (entry <> "" && entry.[0] = '.') then acc
           else collect acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_real_tree_clean () =
  (* The test binary runs in _build/default/test; the mirrored source
     tree and lint.toml sit one level up. Skip when either is absent (a
     bare [dune build] does not copy lint.toml): the fixture config is
     not the tree's config, so judging the tree by it proves nothing. *)
  let roots =
    List.filter
      (fun d -> Sys.file_exists d && Sys.is_directory d)
      [ "../lib"; "../bin"; "../bench"; "../test"; "../tools" ]
  in
  if List.length roots < 5 || not (Sys.file_exists "../lint.toml") then ()
  else begin
    let cfg =
      match Lint_config.load "../lint.toml" with
      | Ok c -> c
      | Error e -> Alcotest.failf "lint.toml: %s" e
    in
    let files = List.fold_left collect [] roots |> List.sort compare in
    Alcotest.(check bool) "scanned a real number of files" true
      (List.length files > 50);
    let sources = List.map (fun f -> (f, read_file f)) files in
    match Lint_rules.check_tree ~config:cfg sources with
    | [] -> ()
    | diags ->
        Alcotest.failf "source tree has lint diagnostics:\n%s"
          (String.concat "\n" (List.map Lint_rules.to_string diags))
  end

(* ---- every library module has a caller ---- *)

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* [name] occurs in [src] as a path prefix [Name.], or as the last
   component of a [module X = ... Name] alias. A test-only module has
   neither in lib/, bin/ or bench/. *)
let references ~name src =
  let n = String.length src and k = String.length name in
  let rec dotted i =
    match String.index_from_opt src i name.[0] with
    | None -> false
    | Some i ->
        (i + k < n
        && String.sub src i k = name
        && src.[i + k] = '.'
        && (i = 0 || not (is_ident_char src.[i - 1])))
        || dotted (i + 1)
  in
  let alias line =
    let line = String.trim line in
    String.starts_with ~prefix:"module " line
    &&
    match String.index_opt line '=' with
    | None -> false
    | Some eq ->
        let rhs = String.sub line (eq + 1) (String.length line - eq - 1) in
        List.nth_opt (List.rev (String.split_on_char '.' (String.trim rhs))) 0
        = Some name
  in
  dotted 0 || List.exists alias (String.split_on_char '\n' src)

let test_no_orphan_modules () =
  let roots = [ "../lib"; "../bin"; "../bench" ] in
  if List.exists (fun d -> not (Sys.file_exists d && Sys.is_directory d)) roots
  then ()
  else begin
    let files = List.fold_left collect [] roots |> List.sort compare in
    let sources = List.map (fun f -> (f, read_file f)) files in
    let modules =
      List.filter
        (fun f -> Filename.dirname (Filename.dirname f) = "../lib")
        files
    in
    let orphans =
      List.filter_map
        (fun m ->
          let name =
            String.capitalize_ascii
              (Filename.chop_suffix (Filename.basename m) ".ml")
          in
          if List.exists (fun (f, src) -> f <> m && references ~name src) sources
          then None
          else Some name)
        modules
    in
    Alcotest.(check (list string))
      "library modules with no caller in lib/, bin/ or bench/" [] orphans
  end

let suite =
  [
    Alcotest.test_case "R1 raw writes" `Quick test_r1;
    Alcotest.test_case "R2 unsafe indexing" `Quick test_r2;
    Alcotest.test_case "R3 domains and forks" `Quick test_r3;
    Alcotest.test_case "R4 exception swallowing" `Quick test_r4;
    Alcotest.test_case "R5 nondeterminism" `Quick test_r5;
    Alcotest.test_case "R6 toplevel mutable state" `Quick test_r6;
    Alcotest.test_case "callgraph and effect fixpoint" `Quick
      test_callgraph_engine;
    Alcotest.test_case "R7 blocking in the reactor" `Quick test_r7;
    Alcotest.test_case "R8 lock discipline" `Quick test_r8;
    Alcotest.test_case "R9 shared-state reachability" `Quick test_r9;
    Alcotest.test_case "parse errors surface" `Quick test_parse_error;
    Alcotest.test_case "config validation" `Quick test_config_errors;
    Alcotest.test_case "stale config paths rejected" `Quick
      test_config_stale_path;
    Alcotest.test_case "suppression window" `Quick test_suppression_window;
    Alcotest.test_case "real tree is clean" `Quick test_real_tree_clean;
    Alcotest.test_case "no library module without a caller" `Quick
      test_no_orphan_modules;
  ]
