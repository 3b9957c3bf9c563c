module Digraph = Versioning_graph.Digraph

let mk_graph () =
  let g = Digraph.create ~n:5 in
  Digraph.add_edge g ~src:0 ~dst:1 "a";
  Digraph.add_edge g ~src:0 ~dst:2 "b";
  Digraph.add_edge g ~src:1 ~dst:3 "c";
  Digraph.add_edge g ~src:2 ~dst:3 "d";
  Digraph.add_edge g ~src:3 ~dst:4 "e";
  g

let test_basic () =
  let g = mk_graph () in
  Alcotest.(check int) "vertices" 5 (Digraph.n_vertices g);
  Alcotest.(check int) "edges" 5 (Digraph.n_edges g);
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (Digraph.in_degree g 3);
  let outs = List.map (fun (e : _ Digraph.edge) -> e.dst) (Digraph.out_edges g 0) in
  Alcotest.(check (list int)) "out edges in insertion order" [ 1; 2 ] outs;
  let ins = List.map (fun (e : _ Digraph.edge) -> e.src) (Digraph.in_edges g 3) in
  Alcotest.(check (list int)) "in edges" [ 1; 2 ] ins

let test_validation () =
  let g = Digraph.create ~n:3 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Digraph.add_edge: self-loop") (fun () ->
      Digraph.add_edge g ~src:1 ~dst:1 ());
  Alcotest.check_raises "range"
    (Invalid_argument "Digraph.add_edge: vertex 3 out of range") (fun () ->
      Digraph.add_edge g ~src:3 ~dst:0 ())

let test_parallel_edges () =
  let g = Digraph.create ~n:2 in
  Digraph.add_edge g ~src:0 ~dst:1 "x";
  Digraph.add_edge g ~src:0 ~dst:1 "y";
  Alcotest.(check int) "both kept" 2 (Digraph.n_edges g);
  (* find_edge returns the first inserted *)
  match Digraph.find_edge g ~src:0 ~dst:1 with
  | Some e -> Alcotest.(check string) "first wins" "x" e.label
  | None -> Alcotest.fail "edge not found"

let test_iter_fold () =
  let g = mk_graph () in
  let n = ref 0 in
  Digraph.iter_edges g (fun _ -> incr n);
  Alcotest.(check int) "iter_edges visits all" 5 !n;
  let labels =
    Digraph.fold_edges g ~init:[] ~f:(fun acc e -> e.Digraph.label :: acc)
  in
  Alcotest.(check int) "fold over all" 5 (List.length labels);
  Alcotest.(check int) "edges list" 5 (List.length (Digraph.edges g))

let test_map_reverse () =
  let g = mk_graph () in
  let g2 = Digraph.map g ~f:(fun e -> String.uppercase_ascii e.Digraph.label) in
  (match Digraph.find_edge g2 ~src:3 ~dst:4 with
  | Some e -> Alcotest.(check string) "mapped" "E" e.label
  | None -> Alcotest.fail "edge lost by map");
  let r = Digraph.reverse g in
  Alcotest.(check int) "reverse keeps count" 5 (Digraph.n_edges r);
  Alcotest.(check bool) "reversed edge" true
    (Digraph.find_edge r ~src:4 ~dst:3 <> None);
  Alcotest.(check bool) "original direction gone" true
    (Digraph.find_edge r ~src:3 ~dst:4 = None)

let test_topological () =
  let g = mk_graph () in
  (match Digraph.topological_order g with
  | None -> Alcotest.fail "DAG misclassified"
  | Some order ->
      Alcotest.(check int) "complete order" 5 (List.length order);
      let pos = Hashtbl.create 8 in
      List.iteri (fun i v -> Hashtbl.replace pos v i) order;
      Digraph.iter_edges g (fun e ->
          Alcotest.(check bool) "edge respects order" true
            (Hashtbl.find pos e.src < Hashtbl.find pos e.dst)));
  Alcotest.(check bool) "is_dag" true (Digraph.is_dag g);
  (* introduce a cycle *)
  Digraph.add_edge g ~src:4 ~dst:0 "back";
  Alcotest.(check bool) "cycle detected" false (Digraph.is_dag g);
  Alcotest.(check bool) "no topo order" true (Digraph.topological_order g = None)

let test_reachability () =
  let g = mk_graph () in
  let from0 = Digraph.reachable_from g 0 in
  Alcotest.(check (array bool)) "everything reachable from 0"
    [| true; true; true; true; true |]
    from0;
  let from3 = Digraph.reachable_from g 3 in
  Alcotest.(check (array bool)) "only 3 and 4 from 3"
    [| false; false; false; true; true |]
    from3;
  let to4 = Digraph.transpose_reachable g 4 in
  Alcotest.(check (array bool)) "all lead to 4"
    [| true; true; true; true; true |]
    to4;
  let to1 = Digraph.transpose_reachable g 1 in
  Alcotest.(check (array bool)) "only 0 leads to 1"
    [| true; true; false; false; false |]
    to1

let test_empty_graph () =
  let g = Digraph.create ~n:0 in
  Alcotest.(check int) "no vertices" 0 (Digraph.n_vertices g);
  Alcotest.(check bool) "vacuous DAG" true (Digraph.is_dag g)

(* find_edge against its definition, on multigraphs with parallel
   edges (labels number the insertions) and out-of-range targets. *)
let qcheck_find_edge_model =
  QCheck.Test.make ~name:"find_edge = first matching out-edge" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let g = Digraph.create ~n in
      List.iteri
        (fun i (s, d) ->
          let s = s mod n and d = d mod n in
          if s <> d then Digraph.add_edge g ~src:s ~dst:d i)
        pairs;
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              Digraph.find_edge g ~src ~dst
              = List.find_opt
                  (fun (e : _ Digraph.edge) -> e.dst = dst)
                  (Digraph.out_edges g src))
            (List.init (n + 2) (fun d -> d - 1)))
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basic;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
    Alcotest.test_case "iter / fold" `Quick test_iter_fold;
    Alcotest.test_case "map / reverse" `Quick test_map_reverse;
    Alcotest.test_case "topological order" `Quick test_topological;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    QCheck_alcotest.to_alcotest qcheck_find_edge_model;
  ]
