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

let test_empty_graph () =
  let g = Digraph.create ~n:0 in
  Alcotest.(check int) "no vertices" 0 (Digraph.n_vertices g);
  Alcotest.(check int) "no edges" 0 (List.length (Digraph.edges g))

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
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    QCheck_alcotest.to_alcotest qcheck_find_edge_model;
  ]
