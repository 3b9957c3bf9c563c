(* Shared test fixtures and helpers. *)

open Versioning_core
open Versioning_workload
module Prng = Versioning_util.Prng

let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected an error"

(* The paper's running example: Figure 1 / Figure 2 matrices. *)
let figure1 () =
  let g = Aux_graph.create ~n_versions:5 in
  List.iter
    (fun (v, c) -> Aux_graph.add_materialization g ~version:v ~delta:c ~phi:c)
    [ (1, 10000.); (2, 10100.); (3, 9700.); (4, 9800.); (5, 10120.) ];
  List.iter
    (fun (i, j, delta, phi) -> Aux_graph.add_delta g ~src:i ~dst:j ~delta ~phi)
    [
      (1, 2, 200., 200.);
      (1, 3, 1000., 3000.);
      (2, 1, 500., 600.);
      (2, 4, 50., 400.);
      (2, 5, 800., 2500.);
      (3, 2, 1100., 3200.);
      (3, 5, 200., 550.);
      (5, 4, 800., 2300.);
      (4, 5, 900., 2500.);
    ];
  g

(* Random proportional-cost graph; always has all materializations, so
   every problem is feasible. *)
let random_graph ?(n_min = 2) ?(n_max = 8) ?(density = 0.5) rng =
  let n = Prng.int_in rng n_min n_max in
  let g = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    let c = float_of_int (Prng.int_in rng 50 150) in
    Aux_graph.add_materialization g ~version:v ~delta:c ~phi:c
  done;
  for s = 1 to n do
    for d = 1 to n do
      if s <> d && Prng.bernoulli rng density then begin
        let c = float_of_int (Prng.int_in rng 1 40) in
        Aux_graph.add_delta g ~src:s ~dst:d ~delta:c ~phi:c
      end
    done
  done;
  g

(* Validity invariant, via the independent verifier: a storage graph
   is a spanning arborescence over revealed edges of [g] and its cost
   accounting matches a fresh recomputation (Lemma 1). Every solver
   test funnels its output through this. *)
let check_valid g sg =
  match Solution_check.check g sg with
  | Ok _ -> ()
  | Error problems ->
      Alcotest.failf "invalid storage solution:\n%s"
        (String.concat "\n" problems)

let float_eq = Alcotest.float 1e-6

(* Small integer weights make ties the rule: deltas 1..4, full
   versions 5..8, some parallel deltas, and some versions without a
   materialization, so a graph can have no valid solution. *)
let tie_heavy ?(n_max = 30) rng =
  let n = Prng.int_in rng 2 n_max in
  let g = Aux_graph.create ~n_versions:n in
  let mat_p = Prng.pick rng [| 0.4; 0.8; 1.0 |] in
  for v = 1 to n do
    if Prng.bernoulli rng mat_p then begin
      let c = float_of_int (Prng.int_in rng 5 8) in
      Aux_graph.add_materialization g ~version:v ~delta:c ~phi:c
    end
  done;
  let density = Prng.pick rng [| 0.1; 0.3; 0.6 |] in
  let delta src dst =
    let c = float_of_int (Prng.int_in rng 1 4) in
    Aux_graph.add_delta g ~src ~dst ~delta:c ~phi:c
  in
  for src = 1 to n do
    for dst = 1 to n do
      if src <> dst && Prng.bernoulli rng density then begin
        delta src dst;
        if Prng.bernoulli rng 0.1 then delta src dst
      end
    done
  done;
  g

(* The plan-sweep shape: 250-version flat histories with
   byte-priced deltas. *)
let cost_gen seed =
  let h =
    History_gen.generate
      (History_gen.flat_params ~n_commits:250)
      (Prng.create ~seed:(17 + seed))
  in
  Cost_gen.generate ~jobs:1 h
    { Cost_gen.default_params with max_hops = 5; reveal_cap = 12 }
    (Prng.create ~seed)
