(* Edge cases across the optimization layer: degenerate sizes,
   zero-cost deltas (identical versions), parallel reveals, and very
   deep chains. *)

open Versioning_core
module Prng = Versioning_util.Prng

let test_single_version () =
  let g = Aux_graph.create ~n_versions:1 in
  Aux_graph.add_materialization g ~version:1 ~delta:42. ~phi:42.;
  let check name sg =
    Alcotest.(check int) (name ^ " parent") 0 (Storage_graph.parent sg 1);
    Alcotest.check Fixtures.float_eq (name ^ " storage") 42.0
      (Storage_graph.storage_cost sg)
  in
  check "mca" (Fixtures.ok (Mca.solve g));
  check "spt" (Fixtures.ok (Spt.solve g));
  check "gith" (Fixtures.ok (Gith.solve g ~window:0 ~max_depth:5));
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  let spt = Fixtures.ok (Spt.solve g) in
  check "lmg" (Lmg.solve g ~base ~spt ~budget:100. ());
  check "last" (Last.solve g ~base ~alpha:2.0);
  (match Mp.solve g ~theta:42.0 with
  | { Mp.tree = Some sg; _ } -> check "mp" sg
  | _ -> Alcotest.fail "mp single");
  match (Exact.solve_p6 g ~theta:42.0 ()).Exact.tree with
  | Some sg -> check "exact" sg
  | None -> Alcotest.fail "exact single"

let test_zero_version_graph () =
  let g = Aux_graph.create ~n_versions:0 in
  let sg = Fixtures.ok (Mca.solve g) in
  Alcotest.(check int) "no versions" 0 (Storage_graph.n_versions sg);
  Alcotest.check Fixtures.float_eq "no storage" 0.0
    (Storage_graph.storage_cost sg);
  let sg = Fixtures.ok (Spt.solve g) in
  Alcotest.check Fixtures.float_eq "no recreation" 0.0
    (Storage_graph.sum_recreation sg)

let zero_delta_graph () =
  (* identical versions: zero-cost deltas in both directions *)
  let g = Aux_graph.create ~n_versions:3 in
  for v = 1 to 3 do
    Aux_graph.add_materialization g ~version:v ~delta:50. ~phi:50.
  done;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:0. ~phi:0.;
  Aux_graph.add_delta g ~src:2 ~dst:1 ~delta:0. ~phi:0.;
  Aux_graph.add_delta g ~src:2 ~dst:3 ~delta:0. ~phi:0.;
  Aux_graph.add_delta g ~src:3 ~dst:2 ~delta:0. ~phi:0.;
  g

let test_zero_cost_deltas () =
  let g = zero_delta_graph () in
  (* MCA must store one copy + two free deltas, and stay acyclic
     despite the zero-cost two-cycles *)
  let sg = Fixtures.ok (Mca.solve g) in
  Fixtures.check_valid g sg;
  Alcotest.check Fixtures.float_eq "one copy" 50.0
    (Storage_graph.storage_cost sg);
  (* every algorithm must avoid the 1<->2 cycle *)
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  let spt = Fixtures.ok (Spt.solve g) in
  Fixtures.check_valid g (Lmg.solve g ~base ~spt ~budget:1e9 ());
  Fixtures.check_valid g (Last.solve g ~base ~alpha:2.0);
  (match Mp.solve g ~theta:100.0 with
  | { Mp.tree = Some sg; _ } -> Fixtures.check_valid g sg
  | _ -> Alcotest.fail "mp zero-delta");
  match (Exact.solve_p6 g ~theta:100.0 ()).Exact.tree with
  | Some e ->
      Fixtures.check_valid g e;
      Alcotest.check Fixtures.float_eq "exact finds one-copy optimum" 50.0
        (Storage_graph.storage_cost e)
  | None -> Alcotest.fail "exact zero-delta"

let test_parallel_reveals () =
  (* two delta mechanisms for the same pair: a compact/slow one and a
     bulky/fast one (the paper's "multiple delta mechanisms") *)
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:100. ~phi:100.;
  Aux_graph.add_materialization g ~version:2 ~delta:100. ~phi:100.;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:5. ~phi:60.;
  (* compact, slow *)
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:40. ~phi:10.;
  (* bulky, fast *)
  let mca = Fixtures.ok (Mca.solve g) in
  Alcotest.check Fixtures.float_eq "mca picks compact" 105.0
    (Storage_graph.storage_cost mca);
  let spt = Fixtures.ok (Spt.solve g) in
  Alcotest.check Fixtures.float_eq "spt picks materialization" 100.0
    (Storage_graph.recreation_cost spt 2);
  (* under theta between the two, MP must use the fast delta *)
  match Mp.solve g ~theta:115.0 with
  | { Mp.tree = Some sg; _ } ->
      Alcotest.(check int) "delta stored" 1 (Storage_graph.parent sg 2);
      Alcotest.(check bool) "fast variant chosen" true
        ((Storage_graph.edge_weight sg 2).Aux_graph.phi <= 10.0)
  | _ -> Alcotest.fail "mp parallel"

let test_deep_chain_no_overflow () =
  (* 30k-deep chain: iterative traversals must not blow the stack *)
  let n = 30_000 in
  let g = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    Aux_graph.add_materialization g ~version:v ~delta:1000. ~phi:1000.
  done;
  for v = 2 to n do
    Aux_graph.add_delta g ~src:(v - 1) ~dst:v ~delta:1. ~phi:1.
  done;
  let sg = Fixtures.ok (Mca.solve g) in
  Alcotest.(check int) "depth" (n - 1) (Storage_graph.depth sg n);
  Alcotest.check Fixtures.float_eq "chain recreation"
    (1000.0 +. float_of_int (n - 1))
    (Storage_graph.recreation_cost sg n);
  (* LMG on the deep chain (tight budget: a few materializations) *)
  let spt = Fixtures.ok (Spt.solve g) in
  let lmg =
    Lmg.solve g ~base:sg ~spt ~budget:(Storage_graph.storage_cost sg +. 5000.)
      ()
  in
  Alcotest.(check bool) "lmg improved the chain" true
    (Storage_graph.sum_recreation lmg < Storage_graph.sum_recreation sg)

let test_mp_theta_zero () =
  let g = Fixtures.figure1 () in
  match Mp.solve g ~theta:0.0 with
  | { Mp.tree = None; infeasible } ->
      Alcotest.(check int) "nothing fits" 5 (List.length infeasible)
  | _ -> Alcotest.fail "theta 0 must be infeasible"

let test_lmg_infinite_budget_idempotent () =
  let rng = Prng.create ~seed:271 in
  let g = Fixtures.random_graph ~n_min:6 ~n_max:12 rng in
  let base = Fixtures.ok (Solver.min_storage_tree g) in
  let spt = Fixtures.ok (Spt.solve g) in
  let a = Lmg.solve g ~base ~spt ~budget:infinity () in
  let b = Lmg.solve g ~base ~spt ~budget:infinity () in
  Alcotest.(check (list (pair int int))) "deterministic"
    (Storage_graph.to_parents a) (Storage_graph.to_parents b)

let test_gith_window_one () =
  (* window 1 still produces a valid plan *)
  let rng = Prng.create ~seed:277 in
  let g = Fixtures.random_graph ~n_min:10 ~n_max:20 rng in
  let sg = Fixtures.ok (Gith.solve g ~window:1 ~max_depth:3) in
  Fixtures.check_valid g sg;
  for v = 1 to Aux_graph.n_versions g do
    Alcotest.(check bool) "depth bound" true (Storage_graph.depth sg v <= 3)
  done

let test_huge_costs () =
  (* near-max-float costs must not overflow comparisons *)
  let g = Aux_graph.create ~n_versions:2 in
  Aux_graph.add_materialization g ~version:1 ~delta:1e300 ~phi:1e300;
  Aux_graph.add_materialization g ~version:2 ~delta:1e300 ~phi:1e300;
  Aux_graph.add_delta g ~src:1 ~dst:2 ~delta:1e299 ~phi:1e299;
  let sg = Fixtures.ok (Mca.solve g) in
  Alcotest.(check bool) "finite storage" true
    (Float.is_finite (Storage_graph.storage_cost sg));
  Alcotest.(check int) "delta chosen" 1 (Storage_graph.parent sg 2)

let suite =
  [
    Alcotest.test_case "single version" `Quick test_single_version;
    Alcotest.test_case "zero versions" `Quick test_zero_version_graph;
    Alcotest.test_case "zero-cost deltas" `Quick test_zero_cost_deltas;
    Alcotest.test_case "parallel reveals" `Quick test_parallel_reveals;
    Alcotest.test_case "deep chain (30k)" `Slow test_deep_chain_no_overflow;
    Alcotest.test_case "mp theta 0" `Quick test_mp_theta_zero;
    Alcotest.test_case "lmg deterministic" `Quick
      test_lmg_infinite_budget_idempotent;
    Alcotest.test_case "gith window 1" `Quick test_gith_window_one;
    Alcotest.test_case "huge costs" `Quick test_huge_costs;
  ]
