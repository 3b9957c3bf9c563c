(* End-to-end integration: generated workloads flow through diffing,
   optimization, and the store, and the cross-algorithm invariants of
   the paper hold on real (generated) data. *)

open Versioning_core
open Versioning_workload
module Prng = Versioning_util.Prng
module Csv = Versioning_delta.Csv

let small_dataset seed =
  let rng = Prng.create ~seed in
  let h = History_gen.generate (History_gen.flat_params ~n_commits:50) rng in
  Dataset_gen.generate h
    {
      Dataset_gen.default_params with
      initial_rows = 50;
      initial_cols = 5;
      max_hops = 3;
      reveal_cap = 10;
    }
    rng

let test_pipeline_invariants () =
  (* On generated data: SPT <= every algorithm per version; MCA <=
     every algorithm on storage; bounds of every heuristic hold. *)
  for seed = 1 to 5 do
    let d = small_dataset seed in
    let g = d.Dataset_gen.aux in
    let n = Aux_graph.n_versions g in
    let base = Fixtures.ok (Solver.min_storage_tree g) in
    let spt = Fixtures.ok (Spt.solve g) in
    let dist = Spt.distances g in
    let cmin = Storage_graph.storage_cost base in
    let solutions =
      List.filter_map
        (fun (name, r) ->
          match r with Ok sg -> Some (name, sg) | Error _ -> None)
        [
          ("mca", Ok base);
          ("spt", Ok spt);
          ("lmg", Ok (Lmg.solve g ~base ~spt ~budget:(1.5 *. cmin) ()));
          ("last", Ok (Last.solve g ~base ~alpha:2.0));
          ("gith", Gith.solve g ~window:10 ~max_depth:20);
          ( "mp",
            match Mp.solve g ~theta:(3.0 *. Array.fold_left Float.max 0. dist) with
            | { Mp.tree = Some sg; _ } -> Ok sg
            | { Mp.tree = None; _ } -> Error "infeasible" );
        ]
    in
    List.iter
      (fun (name, sg) ->
        Fixtures.check_valid g sg;
        Alcotest.(check bool) (name ^ " storage >= MCA") true
          (Storage_graph.storage_cost sg >= cmin -. 1e-6);
        for v = 1 to n do
          Alcotest.(check bool) (name ^ " recreation >= SPT") true
            (Storage_graph.recreation_cost sg v >= dist.(v) -. 1e-6)
        done)
      solutions
  done

let test_store_roundtrip_generated_history () =
  (* Import every generated version into the store, re-plan with each
     strategy, and confirm byte-exact retrieval throughout. *)
  let d = small_dataset 42 in
  let n = Array.length d.Dataset_gen.contents - 1 in
  let dir = Filename.temp_file "dsvc_integration" "" in
  Sys.remove dir;
  let repo = Fixtures.ok (Versioning_store.Repo.init ~path:dir) in
  let entries =
    List.init n (fun i ->
        let v = i + 1 in
        let parents =
          match History_gen.first_parent d.Dataset_gen.history v with
          | None -> []
          | Some p -> [ p ]
        in
        (Printf.sprintf "version %d" v, parents, d.Dataset_gen.contents.(v)))
  in
  let ids = Fixtures.ok (Versioning_store.Repo.import_versions repo entries) in
  Alcotest.(check int) "all imported" n (List.length ids);
  let check_all () =
    for v = 1 to n do
      Alcotest.(check string)
        (Printf.sprintf "content %d" v)
        d.Dataset_gen.contents.(v)
        (Fixtures.ok (Versioning_store.Repo.checkout repo v))
    done
  in
  check_all ();
  List.iter
    (fun strategy ->
      let _ = Fixtures.ok (Versioning_store.Repo.optimize repo strategy) in
      check_all ();
      match Versioning_store.Repo.verify repo with
      | Ok () -> ()
      | Error ps ->
          Alcotest.failf "verify failed after optimize: %s"
            (String.concat "; " ps))
    [
      Versioning_store.Repo.Min_storage;
      Versioning_store.Repo.Budgeted_sum 1.3;
      Versioning_store.Repo.Git_window (8, 20);
    ]

let test_contents_parse_as_tables () =
  let d = small_dataset 7 in
  Array.iteri
    (fun v c ->
      if v >= 1 then begin
        let t = Csv.parse c in
        Alcotest.(check bool) "rectangular" true (Csv.is_rect t);
        Alcotest.(check bool) "has header + rows" true (Csv.n_rows t >= 1)
      end)
    d.Dataset_gen.contents

let test_dedup_vs_delta_storage () =
  (* The related-work comparison (§6): chunk-level dedup vs the
     paper's delta plans on the same version collection. Delta chains
     capture fine-grained redundancy that fixed chunks miss, so MCA
     should never lose; dedup must still beat storing everything. *)
  let d = small_dataset 11 in
  let n = Array.length d.Dataset_gen.contents - 1 in
  let raw_total = ref 0 in
  let store = Versioning_delta.Chunker.store_create () in
  let recipes =
    List.init n (fun i ->
        let c = d.Dataset_gen.contents.(i + 1) in
        raw_total := !raw_total + String.length c;
        Versioning_delta.Chunker.store_add store c)
  in
  (* every version rebuilds from its recipe *)
  List.iteri
    (fun i recipe ->
      Alcotest.(check string) "dedup rebuild"
        d.Dataset_gen.contents.(i + 1)
        (Result.get_ok (Versioning_delta.Chunker.store_get store recipe)))
    recipes;
  let dedup_bytes = Versioning_delta.Chunker.store_bytes store in
  let base = Fixtures.ok (Solver.min_storage_tree d.Dataset_gen.aux) in
  let mca_bytes = Storage_graph.storage_cost base in
  Alcotest.(check bool) "dedup beats raw" true (dedup_bytes < !raw_total);
  Alcotest.(check bool) "delta plan beats dedup" true
    (mca_bytes < float_of_int dedup_bytes)

let suite =
  [
    Alcotest.test_case "pipeline invariants" `Quick test_pipeline_invariants;
    Alcotest.test_case "store roundtrip on generated history" `Quick
      test_store_roundtrip_generated_history;
    Alcotest.test_case "contents parse as tables" `Quick
      test_contents_parse_as_tables;
    Alcotest.test_case "dedup vs delta storage" `Quick
      test_dedup_vs_delta_storage;
  ]
