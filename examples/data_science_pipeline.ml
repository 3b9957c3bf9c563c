(* Intro scenario 2 ("Data Science Dataset Versions"): a group shares
   a dataset; each scientist copies it, cleans/extends it on a branch,
   and stores the result back. Without delta storage the shared folder
   holds near-duplicates; dsvc stores one materialized root plus small
   deltas, and `optimize` rebalances retrieval latency on demand.

     dune exec examples/data_science_pipeline.exe *)

module Repo = Versioning_store.Repo
module Prng = Versioning_util.Prng
module Csv = Versioning_delta.Csv
open Versioning_workload

let ok = function Ok v -> v | Error e -> failwith e

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* Builds the shared history, re-plans it four ways, and says whether
   every version still checks out. *)
let run repo =
  let rng = Prng.create ~seed:2025 in
  let tg = Table_gen.create rng in

  (* The shared source dataset. *)
  let base_table = Table_gen.fresh_table tg ~rows:400 ~cols:10 in
  let v0 = ok (Repo.commit repo ~message:"shared source data" (Csv.print base_table)) in
  Printf.printf "committed shared dataset as version %d (%d bytes)\n" v0
    (String.length (Csv.print base_table));

  (* Three scientists branch off and work independently. *)
  let branch_tips =
    List.map
      (fun (who, n_steps) ->
        ok (Repo.create_branch repo who ~at:v0 ());
        let table = ref base_table in
        let tip = ref v0 in
        for step = 1 to n_steps do
          let edits = Table_gen.random_edits tg ~table:!table ~intensity:0.03 in
          table := Table_gen.apply tg !table edits;
          tip :=
            ok
              (Repo.commit repo
                 ~message:(Printf.sprintf "%s: step %d" who step)
                 (Csv.print !table))
        done;
        Printf.printf "%s made %d commits, tip = version %d\n" who n_steps !tip;
        (!tip, !table))
      [ ("alice-cleaning", 4); ("bob-normalization", 3); ("carol-features", 5) ]
  in

  (* Alice and Bob merge their work (user-performed merge: pick one
     table and append the other's new columns would be domain logic;
     here we just record the merge relationship). *)
  (match branch_tips with
  | (tip_a, table_a) :: (tip_b, _) :: _ ->
      ok (Repo.switch repo "main");
      let merged =
        Table_gen.apply tg table_a
          [ Table_gen.Add_rows { at = 0; count = 5 } ]
      in
      let vm =
        ok
          (Repo.commit repo ~message:"merge alice + bob"
             ~parents:[ tip_a; tip_b ] (Csv.print merged))
      in
      Printf.printf "merged versions %d and %d into version %d\n" tip_a tip_b vm
  | _ -> ());

  (* Compare storage strategies on the accumulated repository. *)
  let naive_bytes =
    List.fold_left
      (fun acc (c : Repo.commit_info) ->
        acc + String.length (ok (Repo.checkout repo c.id)))
      0 (Repo.log repo)
  in
  Printf.printf "\nnaive copies (every version in full): %d bytes\n" naive_bytes;
  List.iter
    (fun (label, strategy) ->
      let s = ok (Repo.optimize repo strategy) in
      Printf.printf
        "%-28s: storage=%7d B  materialized=%d/%d  longest chain=%d  sumR=%8.0f B\n"
        label s.Repo.storage_bytes s.Repo.n_full s.Repo.n_versions
        s.Repo.max_chain s.Repo.sum_recreation_bytes)
    [
      ("optimize min-storage (MCA)", Repo.Min_storage);
      ("optimize balanced (LMG x1.3)", Repo.Budgeted_sum 1.3);
      ("optimize bounded-max (MP x2)", Repo.Bounded_max 2.0);
      ("optimize min-recreation(SPT)", Repo.Min_recreation);
    ];

  (* Retrieval still works after each re-plan. *)
  let everything_ok =
    List.for_all
      (fun (c : Repo.commit_info) ->
        match Repo.checkout repo c.id with Ok _ -> true | Error _ -> false)
      (Repo.log repo)
  in
  Printf.printf "\nall %d versions retrievable: %b\n"
    (List.length (Repo.log repo))
    everything_ok;
  everything_ok

let () =
  let dir = Filename.temp_file "dsvc_pipeline" "" in
  Sys.remove dir;
  let repo = ok (Repo.init ~path:dir) in
  let all_ok =
    Fun.protect
      ~finally:(fun () ->
        Repo.close repo;
        remove_tree dir)
      (fun () -> run repo)
  in
  if not all_ok then exit 1
