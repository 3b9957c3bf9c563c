(* Golden Chu–Liu/Edmonds plans. [mca_golden.txt] holds one line per
   graph: its name, then the parent of every version (child
   ascending), or "error: <text>". The file pins the tree itself, not
   only its weight: LMG and LAST grow every tradeoff plan from it, so
   a changed tie-break moves plans that an equal-weight check would
   pass. The file is [render ()]'s output; rewrite it only when a
   change to the MCA plans is intended. *)

open Versioning_core
open Versioning_workload
module Prng = Versioning_util.Prng

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

let cases () =
  let recipes =
    List.concat_map
      (fun (d : Recipes.dataset) ->
        [ (d.id, d.aux); (d.id ^ "-undirected", (Recipes.undirected d).aux) ])
      (Recipes.all ~scale:Recipes.Quick ~seed:1 ())
  in
  let sweeps =
    List.map (fun s -> (Printf.sprintf "cost-gen-%d" s, cost_gen s)) [ 1; 2; 7919 ]
  in
  let rng = Prng.create ~seed:2015 in
  let ties =
    List.init 200 (fun i -> (Printf.sprintf "ties-%03d" i, tie_heavy rng))
  in
  recipes @ sweeps @ ties

let render_one (name, g) =
  match Mca.solve g with
  | Ok sg ->
      String.concat " "
        (name
        :: List.map (fun (p, _) -> string_of_int p) (Storage_graph.to_parents sg))
  | Error e -> name ^ " error: " ^ e

let render () = List.map render_one (cases ())

let test_golden () =
  let expected =
    String.split_on_char '\n' (String.trim Mca_golden_data.text)
  in
  let got = render () in
  Alcotest.(check int) "graph count" (List.length expected) (List.length got);
  List.iter2 (fun want got -> Alcotest.(check string) "plan" want got) expected got

let qcheck_exact_weight =
  QCheck.Test.make ~name:"mca weight = exact minimum storage (n <= 7)"
    ~count:300 QCheck.int (fun seed ->
      let g = tie_heavy ~n_max:7 (Prng.create ~seed) in
      let exact = Exact.solve_p6 g ~theta:infinity () in
      match (Mca.solve g, exact.tree) with
      | Ok sg, Some best ->
          exact.optimal
          && Storage_graph.storage_cost sg = Storage_graph.storage_cost best
      | Error _, None -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "golden plans" `Quick test_golden;
    QCheck_alcotest.to_alcotest qcheck_exact_weight;
  ]
