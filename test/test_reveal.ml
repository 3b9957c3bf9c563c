(* The reveal prices every pair from interned lines: its graph, and
   the plans [optimize] installs from it, against the per-pair string
   diffs it replaced. *)

open Versioning_store
module IM = Meta.Int_map
module Line_diff = Versioning_delta.Line_diff
module Aux_graph = Versioning_core.Aux_graph
module Graph_io = Versioning_core.Graph_io
module Storage_graph = Versioning_core.Storage_graph
module Prng = Versioning_util.Prng

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let temp_dir () =
  let path = Filename.temp_file "dsvc_reveal" "" in
  Sys.remove path;
  path

(* A branching history of [n] versions: each edits a few lines of an
   earlier version, every fifth merges a second one, and lines repeat
   within and across versions, carry spaces or '\r', and a version may
   drop or gain its final newline. *)
let history ~seed n =
  let rng = Prng.create ~seed in
  let pool = [| "a b"; "x\r"; ""; "1,2,3"; " "; "row 7"; "row 7\r" |] in
  let docs = Array.make (n + 1) [||] in
  docs.(1) <- Array.init 30 (fun i -> Printf.sprintf "row %d" (i mod 11));
  let entries = ref [ ("1", [], String.concat "\n" (Array.to_list docs.(1))) ] in
  for v = 2 to n do
    let p = 1 + Prng.int rng (v - 1) in
    let lines = ref (Array.to_list docs.(p)) in
    for _ = 1 to 1 + Prng.int rng 4 do
      let len = List.length !lines in
      let at = if len = 0 then 0 else Prng.int rng len in
      let fresh = Prng.pick rng pool in
      lines :=
        match Prng.int rng 3 with
        | 0 -> List.filteri (fun i _ -> i <> at) !lines
        | 1 -> List.concat (List.mapi (fun i l -> if i = at then [ fresh; l ] else [ l ]) !lines)
        | _ -> List.mapi (fun i l -> if i = at then fresh else l) !lines
    done;
    docs.(v) <- Array.of_list !lines;
    let content = String.concat "\n" !lines in
    let content = if Prng.int rng 4 = 0 then content ^ "\n" else content in
    let parents = if v mod 5 = 0 && p > 1 then [ p; p - 1 ] else [ p ] in
    entries := (string_of_int v, parents, content) :: !entries
  done;
  List.rev !entries

let with_history ~seed n f =
  let repo = ok (Repo.init_with ~store:(Object_store.memory ()) ~path:(temp_dir ())) in
  Fun.protect ~finally:(fun () -> Repo.close repo) @@ fun () ->
  ignore (ok (Repo.import_versions repo (history ~seed n)));
  f repo

(* ---- the reference: one string diff per pair ---- *)

let ref_reveal repo ~extra_pairs =
  let n = List.length (Repo.log repo) in
  let contents = Array.init (n + 1) (fun v -> if v = 0 then "" else ok (Repo.checkout_uncached repo v)) in
  let aux = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    let size = float_of_int (String.length contents.(v)) in
    Aux_graph.add_materialization aux ~version:v ~delta:size ~phi:size
  done;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      if u >= 1 && v >= 1 && u <> v && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.replace seen (u, v) ();
        let size = float_of_int (Line_diff.size (Line_diff.diff contents.(u) contents.(v))) in
        Aux_graph.add_delta aux ~src:u ~dst:v ~delta:size ~phi:size
      end)
    (Repo.hop_pairs repo ~max_hops:3 @ extra_pairs);
  (aux, contents)

let svn_pairs n = Versioning_core.Skip_delta.parents ~order:(Array.init n (fun i -> i + 1))

let test_reveal_matches_reference () =
  List.iter
    (fun seed ->
      with_history ~seed 40 @@ fun repo ->
      List.iter
        (fun extra_pairs ->
          let ref_aux, ref_contents = ref_reveal repo ~extra_pairs in
          List.iter
            (fun jobs ->
              let aux, contents = ok (Repo.reveal_graph repo ~jobs ~extra_pairs ()) in
              let what = Printf.sprintf "seed %d, %d extra pairs, jobs %d" seed (List.length extra_pairs) jobs in
              Alcotest.(check string) (what ^ ": edges and sizes") (Graph_io.to_string ref_aux)
                (Graph_io.to_string aux);
              Alcotest.(check (array string)) (what ^ ": contents") ref_contents contents)
            [ 1; 2 ])
        [ []; svn_pairs 40 ])
    [ 3; 11 ]

(* The plan each strategy picks on the reference graph, as [optimize]
   dispatches it. *)
let ref_plan aux n = function
  | Repo.Min_storage -> Versioning_core.Mca.solve aux
  | Repo.Min_recreation -> Versioning_core.Spt.solve aux
  | Repo.Budgeted_sum f ->
      let base = ok (Versioning_core.Mca.solve aux) in
      let spt = ok (Versioning_core.Spt.solve aux) in
      Ok
        (Versioning_core.Lmg.solve aux ~base ~spt
           ~budget:(f *. Storage_graph.storage_cost base) ())
  | Repo.Bounded_max f -> (
      let maxd = Array.fold_left Float.max 0.0 (Versioning_core.Spt.distances aux) in
      match Versioning_core.Mp.solve aux ~theta:(f *. maxd) with
      | { tree = Some sg; _ } -> Ok sg
      | { tree = None; _ } -> Error "recreation bound infeasible")
  | Repo.Git_window (w, d) -> Versioning_core.Gith.solve ~jobs:1 aux ~window:w ~max_depth:d
  | Repo.Svn_skip -> Versioning_core.Skip_delta.solve aux ~order:(Array.init n (fun i -> i + 1))

let stored_map repo = (ok (Meta.parse (ok (Repo.export_meta repo)))).Meta.stored

(* The stored map [optimize] should install: the old entry where the
   storage parent is unchanged, else the digest of the full content or
   of the encoded string diff. *)
let ref_stored repo strategy =
  let n = List.length (Repo.log repo) in
  let extra_pairs = if strategy = Repo.Svn_skip then svn_pairs n else [] in
  let aux, contents = ref_reveal repo ~extra_pairs in
  let old = stored_map repo in
  List.fold_left
    (fun acc (p, v) ->
      let entry =
        match (p, IM.find v old) with
        | 0, (Meta.Full _ as e) -> e
        | p, (Meta.Delta_from (q, _) as e) when p = q -> e
        | 0, _ -> Meta.Full (Content_hash.hex contents.(v))
        | p, _ ->
            Meta.Delta_from
              (p, Content_hash.hex (Line_diff.encode (Line_diff.diff contents.(p) contents.(v))))
      in
      IM.add v entry acc)
    old
    (Storage_graph.to_parents (ok (ref_plan aux n strategy)))

let render stored =
  IM.bindings stored
  |> List.map (fun (v, s) ->
         match s with
         | Meta.Full d -> Printf.sprintf "%d full %s" v d
         | Meta.Delta_from (p, d) -> Printf.sprintf "%d delta %d %s" v p d)

let test_optimize_matches_reference () =
  List.iter
    (fun strategy ->
      with_history ~seed:5 40 @@ fun repo ->
      (* twice: from the import's plan, then from the strategy's own *)
      for round = 1 to 2 do
        let expected = ref_stored repo strategy in
        ignore (ok (Repo.optimize repo ~jobs:1 strategy));
        Alcotest.(check (list string))
          (Printf.sprintf "%s, round %d" (Server.strategy_to_string strategy) round)
          (render expected) (render (stored_map repo))
      done)
    [
      Repo.Min_storage;
      Repo.Min_recreation;
      Repo.Budgeted_sum 1.5;
      Repo.Bounded_max 2.0;
      Repo.Git_window (10, 50);
      Repo.Svn_skip;
    ]

let suite =
  [
    Alcotest.test_case "reveal = per-pair string diffs, jobs 1 and 2" `Quick
      test_reveal_matches_reference;
    Alcotest.test_case "optimize stores the reference plan's objects" `Quick
      test_optimize_matches_reference;
  ]
