(* Resemblance, Dot, Retrieval_sim. *)

open Versioning_core
module Resemblance = Versioning_delta.Resemblance
module Retrieval_sim = Versioning_workload.Retrieval_sim
module Prng = Versioning_util.Prng

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---- Resemblance ---- *)

let test_resemblance_identity () =
  let doc = String.concat "\n" (List.init 100 (fun i -> Printf.sprintf "row %d" i)) in
  let s = Resemblance.sketch doc in
  Alcotest.(check (float 1e-9)) "self similarity" 1.0
    (Resemblance.similarity s s);
  Alcotest.(check (float 1e-9)) "equal docs" 1.0
    (Resemblance.similarity s (Resemblance.sketch doc))

let test_resemblance_orders () =
  let base = String.concat "\n" (List.init 200 (fun i -> Printf.sprintf "line %d" i)) in
  let near = base ^ "\nextra line" in
  let rng = Prng.create ~seed:223 in
  let far = String.init (String.length base) (fun _ -> Char.chr (33 + Prng.int rng 90)) in
  let sb = Resemblance.sketch base in
  let sn = Resemblance.sketch near in
  let sf = Resemblance.sketch far in
  let sim_near = Resemblance.similarity sb sn in
  let sim_far = Resemblance.similarity sb sf in
  Alcotest.(check bool) "near similar" true (sim_near > 0.8);
  Alcotest.(check bool) "far dissimilar" true (sim_far < 0.2);
  Alcotest.(check bool) "ordering" true (sim_near > sim_far)

let test_resemblance_estimates_jaccard () =
  (* half-overlapping documents should land near 1/3 Jaccard (shared /
     union of shingles) *)
  let mk lines = String.concat "\n" lines in
  let a = mk (List.init 400 (fun i -> Printf.sprintf "alpha %06d" i)) in
  let b =
    mk
      (List.init 400 (fun i ->
           if i < 200 then Printf.sprintf "alpha %06d" i
           else Printf.sprintf "beta %06d" i))
  in
  let sim =
    Resemblance.similarity
      (Resemblance.sketch ~k:256 a)
      (Resemblance.sketch ~k:256 b)
  in
  Alcotest.(check bool) "roughly a third" true (sim > 0.18 && sim < 0.5)

let test_candidate_pairs () =
  let base = String.concat "\n" (List.init 150 (fun i -> Printf.sprintf "r %d" i)) in
  let rng = Prng.create ~seed:227 in
  let noise () = String.init 1200 (fun _ -> Char.chr (33 + Prng.int rng 90)) in
  let docs = [| base; base ^ "\ntail"; noise (); noise () |] in
  let sketches = Array.map (fun d -> Resemblance.sketch d) docs in
  let pairs = Resemblance.candidate_pairs ~threshold:0.5 sketches in
  Alcotest.(check (list (pair int int))) "only the true pair"
    [ (0, 1) ]
    (List.map (fun (i, j, _) -> (i, j)) pairs);
  let top = Resemblance.top_candidates ~k:1 sketches 0 in
  Alcotest.(check (list int)) "top candidate" [ 1 ] (List.map fst top)

let test_sketch_mismatch () =
  let a = Resemblance.sketch ~k:32 "x" and b = Resemblance.sketch ~k:64 "x" in
  Alcotest.(check bool) "k mismatch rejected" true
    (match Resemblance.similarity a b with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- Dot ---- *)

let test_dot_storage_graph () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (0, 3); (2, 4); (3, 5) ])
  in
  let dot = Dot.of_storage_graph sg in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph storage_plan" dot);
  Alcotest.(check bool) "materialized doubled" true
    (contains ~needle:"peripheries=2" dot);
  Alcotest.(check bool) "edge rendered" true (contains ~needle:"n1 -> n2" dot);
  Alcotest.(check bool) "root edge" true (contains ~needle:"n0 -> n1" dot);
  Alcotest.(check bool) "cost labels" true (contains ~needle:"d=200" dot)

let test_dot_custom_labels () =
  let g = Fixtures.figure1 () in
  let sg = Fixtures.ok (Solver.min_storage_tree g) in
  let dot =
    Dot.of_storage_graph ~name:"plan"
      ~labels:(fun v -> if v = 0 then "root" else Printf.sprintf "dataset-%d" v)
      sg
  in
  Alcotest.(check bool) "custom name" true (contains ~needle:"digraph plan" dot);
  Alcotest.(check bool) "custom label" true (contains ~needle:"dataset-3" dot);
  (* labels with quotes are escaped, keeping the DOT well-formed *)
  let dot =
    Dot.of_storage_graph ~labels:(fun v -> Printf.sprintf "v\"%d" v) sg
  in
  Alcotest.(check bool) "quotes escaped" true
    (not (contains ~needle:"\"v\"1\"" dot))

let test_dot_aux_graph_truncation () =
  let g = Fixtures.figure1 () in
  let dot = Dot.of_aux_graph ~max_edges:3 g in
  Alcotest.(check bool) "truncation noted" true (contains ~needle:"truncated" dot);
  let full = Dot.of_aux_graph g in
  Alcotest.(check bool) "no truncation note when small" true
    (not (contains ~needle:"truncated" full))

(* ---- Retrieval_sim ---- *)

let test_sim_no_cache_equals_model () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ])
  in
  let accesses = [ 5; 4; 1; 5 ] in
  let r = Retrieval_sim.run sg ~cache_slots:0 ~accesses in
  let expected =
    List.fold_left
      (fun acc v -> acc +. Storage_graph.recreation_cost sg v)
      0.0 accesses
  in
  Alcotest.(check (float 1e-6)) "matches paper cost model" expected
    r.Retrieval_sim.total_cost;
  Alcotest.(check int) "no hits without cache" 0 r.Retrieval_sim.hits

let test_sim_cache_helps () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ])
  in
  let accesses = [ 5; 5; 5; 5 ] in
  let cold = Retrieval_sim.run sg ~cache_slots:0 ~accesses in
  let warm = Retrieval_sim.run sg ~cache_slots:4 ~accesses in
  Alcotest.(check int) "three hits" 3 warm.Retrieval_sim.hits;
  Alcotest.(check bool) "cache reduces cost" true
    (warm.Retrieval_sim.total_cost < cold.Retrieval_sim.total_cost /. 2.0)

let test_sim_partial_hits () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (1, 2); (1, 3); (2, 4); (3, 5) ])
  in
  (* access the parent (3) then the child (5): the child's chain is
     cut at the cached parent and pays only its own edge *)
  let r = Retrieval_sim.run sg ~cache_slots:4 ~accesses:[ 3; 5 ] in
  Alcotest.(check int) "one partial" 1 r.Retrieval_sim.partial_hits;
  let expected =
    Storage_graph.recreation_cost sg 3
    +. (Storage_graph.edge_weight sg 5).Aux_graph.phi
  in
  Alcotest.(check (float 1e-6)) "chain cut cost" expected r.Retrieval_sim.total_cost

let test_sim_lru_eviction () =
  let g = Fixtures.figure1 () in
  let sg =
    Fixtures.ok
      (Storage_graph.of_parents g
         ~parents:[ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ])
  in
  (* slot for one: second distinct access evicts the first *)
  let r = Retrieval_sim.run sg ~cache_slots:1 ~accesses:[ 1; 2; 1 ] in
  Alcotest.(check int) "no hits after eviction" 0 r.Retrieval_sim.hits

let test_zipf_stream () =
  let rng = Prng.create ~seed:233 in
  let stream = Retrieval_sim.zipf_stream ~n_versions:20 ~length:5000 ~exponent:2.0 rng in
  Alcotest.(check int) "length" 5000 (List.length stream);
  List.iter
    (fun v -> Alcotest.(check bool) "range" true (v >= 1 && v <= 20))
    stream;
  (* skew: the most frequent version dominates *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
    stream;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "zipf head heavy" true (top > 2000)

let suite =
  [
    Alcotest.test_case "resemblance identity" `Quick test_resemblance_identity;
    Alcotest.test_case "resemblance ordering" `Quick test_resemblance_orders;
    Alcotest.test_case "resemblance jaccard" `Quick
      test_resemblance_estimates_jaccard;
    Alcotest.test_case "candidate pairs" `Quick test_candidate_pairs;
    Alcotest.test_case "sketch size mismatch" `Quick test_sketch_mismatch;
    Alcotest.test_case "dot storage graph" `Quick test_dot_storage_graph;
    Alcotest.test_case "dot custom labels" `Quick test_dot_custom_labels;
    Alcotest.test_case "dot truncation" `Quick test_dot_aux_graph_truncation;
    Alcotest.test_case "sim = cost model w/o cache" `Quick
      test_sim_no_cache_equals_model;
    Alcotest.test_case "sim cache helps" `Quick test_sim_cache_helps;
    Alcotest.test_case "sim partial hits" `Quick test_sim_partial_hits;
    Alcotest.test_case "sim lru eviction" `Quick test_sim_lru_eviction;
    Alcotest.test_case "zipf stream" `Quick test_zipf_stream;
  ]
