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

(* The graphs whose plans the golden files pin: the recipes, directed
   and undirected, three plan-sweep graphs and 200 tie-heavy ones.
   [test_lmg_golden.ml] grows its plans on the same graphs. *)
let cases () =
  let recipes =
    List.concat_map
      (fun (d : Recipes.dataset) ->
        [ (d.id, d.aux); (d.id ^ "-undirected", (Recipes.undirected d).aux) ])
      (Recipes.all ~scale:Recipes.Quick ~seed:1 ())
  in
  let sweeps =
    List.map
      (fun s -> (Printf.sprintf "cost-gen-%d" s, Fixtures.cost_gen s))
      [ 1; 2; 7919 ]
  in
  let rng = Prng.create ~seed:2015 in
  let ties =
    List.init 200 (fun i ->
        (Printf.sprintf "ties-%03d" i, Fixtures.tie_heavy rng))
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
      let g = Fixtures.tie_heavy ~n_max:7 (Prng.create ~seed) in
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
