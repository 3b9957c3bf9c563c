(* Golden LMG plans. [lmg_golden.txt] holds one line per (graph, run):
   the graph's name, the run's label, then the parent of every version
   (child ascending), or "error: <text>". Every run grows from the MCA
   tree that [mca_golden.txt] pins, towards the SPT:
   - [b<f>]: [Lmg.solve] at f × MCA storage, unweighted;
   - [w<f>]: the same budget with the fixed frequencies [freqs];
   - [p5-<q>]: [Lmg.solve_p5] at the Σ recreation bound q of the way
     from the SPT's sum to the MCA tree's.
   The file is [render ()]'s output; rewrite it only when a change to
   the LMG plans is intended. *)

open Versioning_core
open Versioning_workload
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Prng = Versioning_util.Prng

let budgets = [ 1.0; 1.1; 1.5; 3.0 ]
let p5_bounds = [ 0.25; 0.75 ]

(* Non-dyadic weights, so a changed summation order changes the
   weighted scores. *)
let freqs n =
  Array.init (n + 1) (fun v ->
      if v = 0 then 0.0 else float_of_int (1 + (v * 7919 mod 13)) /. 3.0)

let parents sg =
  String.concat " "
    (List.map (fun (p, _) -> string_of_int p) (Storage_graph.to_parents sg))

let render_one (name, g) =
  match (Mca.solve g, Spt.solve g) with
  | Error e, _ | _, Error e -> [ name ^ " error: " ^ e ]
  | Ok base, Ok spt ->
      let cmin = Storage_graph.storage_cost base in
      let freqs = freqs (Aux_graph.n_versions g) in
      let line label sg = Printf.sprintf "%s %s %s" name label (parents sg) in
      let runs =
        List.concat_map
          (fun f ->
            let budget = f *. cmin in
            [
              line (Printf.sprintf "b%g" f) (Lmg.solve g ~base ~spt ~budget ());
              line (Printf.sprintf "w%g" f)
                (Lmg.solve g ~base ~spt ~budget ~freqs ());
            ])
          budgets
      in
      let sum_spt = Storage_graph.sum_recreation spt in
      let sum_base = Storage_graph.sum_recreation base in
      let p5 =
        List.map
          (fun q ->
            let label = Printf.sprintf "p5-%g" q in
            let sum_bound = sum_spt +. (q *. (sum_base -. sum_spt)) in
            match Lmg.solve_p5 g ~base ~spt ~sum_bound () with
            | Ok sg -> line label sg
            | Error e -> Printf.sprintf "%s %s error: %s" name label e)
          p5_bounds
      in
      runs @ p5

let render () = List.concat_map render_one (Test_mca_golden.cases ())

let test_golden () =
  let expected =
    String.split_on_char '\n' (String.trim Lmg_golden_data.text)
  in
  let got = render () in
  Alcotest.(check int) "run count" (List.length expected) (List.length got);
  List.iter2 (fun want got -> Alcotest.(check string) "plan" want got) expected got

(* The work a run does is linear in the versions, not rounds × |ξ|:
   heap pops stay within 4·n on a 4,000-version chain-heavy graph (the
   cost parameters of the bench's ablation A) at 1.5 × MCA storage. *)
let test_work_bound () =
  let n = 4000 in
  let rng = Prng.create ~seed:4000 in
  let history =
    History_gen.generate (History_gen.linear_params ~n_commits:n) rng
  in
  let g =
    Cost_gen.generate history
      {
        Cost_gen.default_params with
        delta_per_hop = 60.0;
        max_hops = 4;
        reveal_cap = 10;
      }
      rng
  in
  let base = Fixtures.ok (Mca.solve g) and spt = Fixtures.ok (Spt.solve g) in
  let budget = 1.5 *. Storage_graph.storage_cost base in
  let considered () =
    Option.value ~default:0.0
      (List.assoc_opt {|dsvc_solver_swaps_considered_total{algo="lmg"}|}
         (Metrics.snapshot_values ()))
  in
  let sg, popped =
    Obs.with_enabled true (fun () ->
        let before = considered () in
        let sg = Lmg.solve g ~base ~spt ~budget () in
        (sg, considered () -. before))
  in
  Fixtures.check_valid g sg;
  if popped > float_of_int (4 * n) then
    Alcotest.failf "%.0f swaps considered for %d versions" popped n

let qcheck_plans =
  QCheck.Test.make ~count:300
    ~name:"valid, within budget, never worse than the base"
    QCheck.(pair int bool)
    (fun (seed, weighted) ->
      let rng = Prng.create ~seed in
      let g = Fixtures.tie_heavy rng in
      match (Mca.solve g, Spt.solve g) with
      | Error _, _ | _, Error _ -> true
      | Ok base, Ok spt ->
          let n = Aux_graph.n_versions g in
          let freqs =
            if weighted then
              Some (Array.init (n + 1) (fun _ -> Prng.float rng 3.0))
            else None
          in
          let measure sg =
            match freqs with
            | Some f -> Storage_graph.weighted_recreation sg ~freqs:f
            | None -> Storage_graph.sum_recreation sg
          in
          let cmin = Storage_graph.storage_cost base in
          let budget = Prng.pick rng [| 0.9; 1.0; 1.1; 1.5; 3.0 |] *. cmin in
          let sg = Lmg.solve g ~base ~spt ~budget ?freqs () in
          (match Solution_check.check g sg with
          | Ok _ -> ()
          | Error problems ->
              QCheck.Test.fail_reportf "invalid plan: %s"
                (String.concat "; " problems));
          let within = Storage_graph.storage_cost sg <= budget *. (1.0 +. 1e-9) in
          (cmin > budget || within)
          && measure sg <= measure base *. (1.0 +. 1e-9))

let suite =
  [
    Alcotest.test_case "golden plans" `Quick test_golden;
    Alcotest.test_case "work bound" `Quick test_work_bound;
    QCheck_alcotest.to_alcotest qcheck_plans;
  ]
