(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (§5) at reproduction scale.

     dune exec bench/main.exe                   # everything, full scale
     dune exec bench/main.exe -- --quick        # smaller datasets
     dune exec bench/main.exe -- fig13 table2   # selected experiments
     dune exec bench/main.exe -- --out data/    # also write CSV series

   Experiments: fig12 sec52 fig13 fig14 fig15 fig16 fig17 table2
   table2b ablation perf cluster concurrency telemetry timeseries
   (table2b onwards go beyond the paper — cluster measures the
   replicated store of DESIGN.md §12, concurrency the event-driven
   server core of §13 under 1/100/1000 keep-alive clients, telemetry the workload-drift
   observatory of §15: a skewed Zipf stream raises the drift score and
   an observed-weight re-plan lowers the access-weighted recreation
   cost, timeseries the metric ring of §16).

   Absolute numbers differ from the paper (its datasets are 100k
   versions of ~350 MB; ours are laptop-scale — see DESIGN.md §2);
   the *shape* of each result is what is reproduced, and each section
   prints the shape expectation it is checked against. Guarantees are
   not shapes: a plan storing less than the minimum-storage tree or
   recreating less than the SPT on the same graph, or a LAST plan
   outside its α-bounds, makes the run exit 4.

   Every run writes BENCH_2.json (--bench-out PATH). Wall time is
   perfbench's to measure; the regression gate here counts work:

     dune exec bench/main.exe -- --quick --jobs 1 --check \
       fig12 sec52 fig13 fig14 fig15 fig16 fig17 table2 table2b ablation perf

   --check turns observability on and compares every work counter (all
   of meta.obs_counters but the *_seconds_sum timings) for equality
   with the baseline (--baseline PATH, default bench/work_counters.json);
   any counter missing, added or changed is named and exits 3. To
   refresh the baseline after an intended change in work, add
   --bench-out bench/work_counters.json to that command: the baseline
   is read before the run overwrites it. *)

open Versioning_core
open Versioning_workload
module Prng = Versioning_util.Prng
module Stats = Versioning_util.Stats
module Zipf = Versioning_util.Zipf
module Pool = Versioning_util.Pool
module Line_diff = Versioning_delta.Line_diff
module Compress = Versioning_delta.Compress
module Repo = Versioning_store.Repo
module Backend = Versioning_store.Backend
module Replicated = Versioning_store.Replicated
module Content_hash = Versioning_store.Content_hash
module Server = Versioning_store.Server
module Client = Versioning_store.Client
module Http = Versioning_store.Http
module Fsutil = Versioning_util.Fsutil
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Telemetry = Versioning_obs.Telemetry
module Timeseries = Versioning_obs.Timeseries
module Alerts = Versioning_obs.Alerts

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Optional CSV sink: every experiment also writes its data series
   under the --out directory, one file per figure panel, for
   re-plotting. Writes go through the store's atomic write path so an
   interrupted run never leaves a half-written series behind. *)
let csv_dir : string option ref = ref None

let csv_write name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (String.concat "," header ^ "\n");
      List.iter
        (fun row -> Buffer.add_string buf (String.concat "," row ^ "\n"))
        rows;
      match
        Fsutil.write_file_atomic ~fsync:false ~site:"bench.csv" path
          (Buffer.contents buf)
      with
      | Ok () -> ()
      | Error e -> Printf.eprintf "csv %s: %s\n%!" path e

(* ---- BENCH_2.json: the machine-readable run record ---- *)

type value = Int of int | Float of float | Str of string | Bool of bool

(* The record's row sections, in output order. A row is one JSON
   object whose keys keep the order they were given in. *)
let sections =
  [
    "experiments"; "graph_construction"; "cluster"; "concurrency";
    "telemetry"; "timeseries"; "connection_reuse";
  ]

let rows : (string, (string * value) list) Hashtbl.t = Hashtbl.create 8
let add_row section fields = Hashtbl.add rows section fields
let per_s n wall = if wall > 0.0 then float_of_int n /. wall else 0.0

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.6f" f else "0.0"

let json_value = function
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Str s -> Printf.sprintf "\"%s\"" (Metrics.json_escape s)
  | Bool b -> string_of_bool b

(* Run provenance for the bench record: the commit the numbers were
   measured at — the same stamp /health and `dsvc metrics --json`
   carry, so bench records and live processes are diffable. *)
let git_rev () = Versioning_util.Build_info.git_rev ()

let emit_bench_json path ~quick ~jobs =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* comma-separated, one item per line *)
  let lines indent items =
    String.concat "," (List.map (fun x -> "\n" ^ indent ^ x) items)
  in
  let pair k v = Printf.sprintf "\"%s\": %s" (Metrics.json_escape k) v in
  add "{\n";
  add "  \"schema\": \"dsvc-bench/2\",\n";
  add "  \"quick\": %b,\n" quick;
  add "  \"jobs\": %d,\n" jobs;
  add "  \"ncores\": %d,\n" (Pool.recommended_jobs ());
  (* Provenance + observability snapshot: which commit and DSVC_JOBS
     setting produced these numbers, and (when observability is on)
     the counters behind them — what --check compares. *)
  add "  \"meta\": {\n";
  add "    \"git_rev\": \"%s\",\n" (Metrics.json_escape (git_rev ()));
  add "    \"ocaml\": \"%s\",\n"
    (Metrics.json_escape Versioning_util.Build_info.ocaml_version);
  add "    \"dsvc_jobs_env\": \"%s\",\n"
    (Metrics.json_escape
       (Option.value (Sys.getenv_opt "DSVC_JOBS") ~default:""));
  add "    \"dsvc_obs\": %b,\n" (Obs.enabled ());
  add "    \"obs_counters\": {%s\n    }\n"
    (lines "      "
       (List.map
          (fun (k, v) -> pair k (json_float v))
          (Metrics.snapshot_values ())));
  add "  },\n";
  let section name =
    let obj fields =
      let kvs = List.map (fun (k, v) -> pair k (json_value v)) fields in
      "{" ^ String.concat ", " kvs ^ "}"
    in
    Printf.sprintf "  \"%s\": [%s\n  ]" name
      (lines "    " (List.rev_map obj (Hashtbl.find_all rows name)))
  in
  add "%s\n}\n" (String.concat ",\n" (List.map section sections));
  match
    Fsutil.write_file_atomic ~fsync:false ~site:"bench.json" path
      (Buffer.contents buf)
  with
  | Ok () -> Printf.printf "\nwrote %s\n" path
  | Error e -> Printf.eprintf "bench json %s: %s\n%!" path e

(* ---- --check: the work-counter gate ---- *)

(* Every observability counter except the *_seconds_sum timings counts
   work, so two runs of the same experiments agree on it exactly. *)
let is_work_counter name =
  let family =
    match String.index_opt name '{' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  not (String.ends_with ~suffix:"_seconds_sum" family)

(* Values are compared as their recorded text. *)
let work_counters () =
  List.filter_map
    (fun (k, v) -> if is_work_counter k then Some (k, json_float v) else None)
    (Metrics.snapshot_values ())

(* The work counters of a record written by [emit_bench_json]: its
   obs_counters block holds one "name": value pair per line. *)
let baseline_counters content =
  let rec block = function
    | [] -> []
    | l :: tl when String.trim l = "\"obs_counters\": {" -> pairs tl
    | _ :: tl -> block tl
  and pairs = function
    | [] -> []
    | l :: tl -> (
        match Scanf.sscanf l " %S : %[^,]" (fun k v -> (k, String.trim v)) with
        | kv -> kv :: pairs tl
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> [])
  in
  List.filter (fun (k, _) -> is_work_counter k)
    (block (String.split_on_char '\n' content))

let counter_diffs ~baseline current =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k baseline with
      | None -> Some (Printf.sprintf "%s added (%s)" k v)
      | Some b when b <> v -> Some (Printf.sprintf "%s changed: %s -> %s" k b v)
      | Some _ -> None)
    current
  @ List.filter_map
      (fun (k, b) ->
        if List.mem_assoc k current then None
        else Some (Printf.sprintf "%s missing (baseline %s)" k b))
      baseline

(* ---- Must-hold claims ---- *)

(* A plan that beats a proven optimum, or a LAST plan outside its
   published bounds, is a bug rather than a shape: each violation
   names the figure and the plan, and fails the run (exit 4) once the
   record is written. *)
let violations = ref []

let claim ~fig ~plan what holds =
  if not holds then
    violations := Printf.sprintf "%s, %s: %s" fig plan what :: !violations

(* [a <= b] up to a 1e-9 relative tolerance *)
let leq a b = a <= b +. (1e-9 *. Float.abs b)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

let ok = function Ok v -> v | Error e -> failwith e

let base_and_spt g =
  (ok (Solver.min_storage_tree g), ok (Spt.solve g))

(* ------------------------------------------------------------------ *)
(* Figure 12: dataset properties and delta-size distribution.          *)
(* ------------------------------------------------------------------ *)

let fig12 datasets =
  header "Figure 12: dataset properties and normalized delta sizes";
  Printf.printf "%-28s %10s %10s %10s %10s\n" "" "DC" "LC" "BF" "LF";
  let per_ds = List.map (fun (d : Recipes.dataset) ->
      let g = d.aux in
      let base, spt = base_and_spt g in
      (d, base, spt))
      datasets
  in
  (* one table row, one cell per dataset *)
  let row name cell =
    Printf.printf "%-28s%s\n" name
      (String.concat ""
         (List.map (fun x -> Printf.sprintf " %10s" (cell x)) per_ds))
  in
  let kb fmt cost sg = Printf.sprintf fmt (cost sg /. 1024.) in
  let open Storage_graph in
  row "Number of versions" (fun (d, _, _) ->
      string_of_int (Aux_graph.n_versions d.Recipes.aux));
  row "Number of deltas" (fun (d, _, _) -> string_of_int d.Recipes.n_deltas);
  row "Average version size (KB)" (fun (d, _, _) ->
      Printf.sprintf "%.2f" (d.Recipes.avg_version_size /. 1024.));
  row "MCA storage (KB)" (fun (_, b, _) -> kb "%.1f" storage_cost b);
  row "MCA sum recreation (KB)" (fun (_, b, _) -> kb "%.0f" sum_recreation b);
  row "MCA max recreation (KB)" (fun (_, b, _) -> kb "%.1f" max_recreation b);
  row "SPT storage (KB)" (fun (_, _, s) -> kb "%.1f" storage_cost s);
  row "SPT sum recreation (KB)" (fun (_, _, s) -> kb "%.0f" sum_recreation s);
  row "SPT max recreation (KB)" (fun (_, _, s) -> kb "%.1f" max_recreation s);
  subheader "normalized delta sizes (delta / avg version size)";
  List.iter
    (fun ((d : Recipes.dataset), _, _) ->
      let normalized =
        Array.map (fun s -> s /. d.avg_version_size) d.delta_sizes
      in
      let s = Stats.summarize normalized in
      Printf.printf "%-4s min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f mean=%.3f\n"
        d.id s.Stats.min s.Stats.q1 s.Stats.median s.Stats.q3 s.Stats.max
        s.Stats.mean)
    per_ds;
  print_endline
    "\nshape check: SPT storage = SPT sum recreation (everything\n\
     materialized); MCA storage is a small fraction of SPT storage while\n\
     its recreation costs are far larger; most normalized deltas are well\n\
     below 1."

(* ------------------------------------------------------------------ *)
(* Section 5.2: comparison with SVN- and Git-style storage.            *)
(* ------------------------------------------------------------------ *)

let sec52 (lf : Recipes.dataset) =
  header "Section 5.2: SVN vs Git vs gzip vs MCA on the LF dataset";
  let contents = Option.get lf.contents in
  let n = Aux_graph.n_versions lf.aux in
  (* gzip-the-files baseline: every version compressed in full. *)
  let (gzip_bytes, gzip_t) =
    time (fun () ->
        let total = ref 0 in
        for v = 1 to n do
          total := !total + String.length (Compress.lz77 contents.(v))
        done;
        !total)
  in
  (* SVN skip-deltas: deltas computed directly from contents along the
     skip-base chain (SVN does not consult similarity). *)
  let (svn_bytes, svn_t) =
    time (fun () ->
        let total = ref (String.length contents.(1)) in
        for p = 1 to n - 1 do
          let base = Skip_delta.skip_base p + 1 and v = p + 1 in
          let d = Line_diff.diff contents.(base) contents.(v) in
          total := !total + Line_diff.size d
        done;
        !total)
  in
  (* GitH repack over the revealed graph. *)
  let (gith_sg, gith_t) =
    time (fun () -> ok (Gith.solve lf.aux ~window:50 ~max_depth:50))
  in
  (* MCA. *)
  let (mca_sg, mca_t) = time (fun () -> ok (Mca.solve lf.aux)) in
  Printf.printf "%-34s %14s %10s\n" "approach" "storage bytes" "time (s)";
  Printf.printf "%-34s %14d %10.2f\n" "gzip every version" gzip_bytes gzip_t;
  Printf.printf "%-34s %14d %10.2f\n" "SVN skip-deltas" svn_bytes svn_t;
  Printf.printf "%-34s %14.0f %10.2f\n" "GitH repack (w=50,d=50)"
    (Storage_graph.storage_cost gith_sg) gith_t;
  Printf.printf "%-34s %14.0f %10.2f\n" "MCA (this paper)"
    (Storage_graph.storage_cost mca_sg) mca_t;
  print_endline
    "\nshape check: MCA < GitH << gzip-everything, and SVN's skip-deltas\n\
     waste storage relative to similarity-aware plans (the paper: SVN\n\
     8.5 GB vs Git 202 MB vs MCA 159 MB)."

(* ------------------------------------------------------------------ *)
(* Figures 13-15: tradeoff sweeps.                                     *)
(* ------------------------------------------------------------------ *)

type point = {
  label : string;
  tree : Storage_graph.t;
  storage : float;
  sum_r : float;
  max_r : float;
}

let point label sg =
  {
    label;
    tree = sg;
    storage = Storage_graph.storage_cost sg;
    sum_r = Storage_graph.sum_recreation sg;
    max_r = Storage_graph.max_recreation sg;
  }

(* Problems 1 and 2 are solved exactly: no plan on the same graph
   stores less than [base], or recreates less than [spt] in sum or at
   worst. *)
let check_optima ~fig base spt pts =
  let b = point "base" base and s = point "SPT" spt in
  List.iter
    (fun p ->
      let claim = claim ~fig ~plan:p.label in
      claim "storage below the minimum-storage tree" (leq b.storage p.storage);
      claim "sum recreation below SPT's" (leq s.sum_r p.sum_r);
      claim "max recreation below SPT's" (leq s.max_r p.max_r))
    pts

(* LAST's guarantees on an undirected graph with Δ = Φ (§4.3): every
   Ri ≤ α·SP(i), and storage ≤ (1 + 2/(α−1))·MST. [pts] are the
   plans for [alphas], in order. *)
let check_last ~fig g base spt alphas pts =
  if Aux_graph.scenario g = `Undirected_prop then begin
    let mst = Storage_graph.storage_cost base in
    List.iter2
      (fun alpha p ->
        let claim = claim ~fig ~plan:p.label in
        let r = Storage_graph.recreation_cost in
        let over =
          List.find_opt
            (fun v -> not (leq (r p.tree v) (alpha *. r spt v)))
            (List.init (Aux_graph.n_versions g) succ)
        in
        claim
          (Printf.sprintf "R%d above alpha x SP" (Option.value over ~default:0))
          (over = None);
        claim "storage above (1 + 2/(alpha-1)) x MST"
          (leq p.storage ((1.0 +. (2.0 /. (alpha -. 1.0))) *. mst)))
      alphas pts
  end

let sweep_lmg g base spt factors =
  let cmin = Storage_graph.storage_cost base in
  List.map
    (fun f ->
      point
        (Printf.sprintf "LMG %.2fx" f)
        (Lmg.solve g ~base ~spt ~budget:(f *. cmin) ()))
    factors

let sweep_mp g spt factors =
  let dist_max = Storage_graph.max_recreation spt in
  List.filter_map
    (fun f ->
      match Mp.solve g ~theta:(f *. dist_max) with
      | { Mp.tree = Some sg; _ } -> Some (point (Printf.sprintf "MP %.2fx" f) sg)
      | { Mp.tree = None; _ } -> None)
    factors

let sweep_last g base alphas =
  List.map
    (fun a -> point (Printf.sprintf "LAST a=%.2f" a) (Last.solve g ~base ~alpha:a))
    alphas

let sweep_gith g windows_depths =
  List.filter_map
    (fun (w, d) ->
      match Gith.solve g ~window:w ~max_depth:d with
      | Ok sg ->
          let wname = if w <= 0 then "inf" else string_of_int w in
          Some (point (Printf.sprintf "GitH w=%s d=%d" wname d) sg)
      | Error _ -> None)
    windows_depths

let print_points ?csv ~value ~value_name points =
  Printf.printf "%-16s %14s %14s\n" "config" "storage" value_name;
  List.iter
    (fun p -> Printf.printf "%-16s %14.0f %14.0f\n" p.label p.storage (value p))
    points;
  match csv with
  | None -> ()
  | Some name ->
      csv_write name
        [ "config"; "storage"; "sum_recreation"; "max_recreation" ]
        (List.map
           (fun p ->
             [
               p.label;
               Printf.sprintf "%.0f" p.storage;
               Printf.sprintf "%.0f" p.sum_r;
               Printf.sprintf "%.0f" p.max_r;
             ])
           points)

let fig13 datasets =
  header
    "Figure 13: directed case - storage vs sum of recreation costs";
  List.iter
    (fun (d : Recipes.dataset) ->
      let g = d.aux in
      let base, spt = base_and_spt g in
      subheader
        (Printf.sprintf
           "dataset %s   [min storage (MCA) = %.0f, min sumR (SPT) = %.0f]"
           d.id
           (Storage_graph.storage_cost base)
           (Storage_graph.sum_recreation spt));
      let pts =
        sweep_lmg g base spt [ 1.05; 1.1; 1.25; 1.5; 2.0; 3.0 ]
        @ sweep_mp g spt [ 1.0; 1.25; 1.5; 2.0; 3.0; 5.0 ]
        @ sweep_last g base [ 1.25; 1.5; 2.0; 3.0; 5.0 ]
        @ sweep_gith g [ (0, 10); (0, 50); (10, 50); (50, 50) ]
      in
      check_optima ~fig:("fig13 " ^ d.id) base spt pts;
      print_points ~csv:("fig13_" ^ d.id) ~value:(fun p -> p.sum_r)
        ~value_name:"sum recreation" pts)
    datasets;
  print_endline
    "\nshape check: small storage premiums over MCA collapse sum recreation\n\
     toward the SPT bound; LMG dominates the frontier with LAST close;\n\
     GitH reaches good recreation but at materially higher storage."

let fig14 datasets =
  header "Figure 14: directed case - storage vs max recreation cost";
  List.iter
    (fun (d : Recipes.dataset) ->
      let g = d.aux in
      let base, spt = base_and_spt g in
      subheader
        (Printf.sprintf
           "dataset %s   [min storage (MCA) = %.0f, min maxR (SPT) = %.0f]"
           d.id
           (Storage_graph.storage_cost base)
           (Storage_graph.max_recreation spt));
      let pts =
        sweep_lmg g base spt [ 1.05; 1.1; 1.25; 1.5; 2.0; 3.0 ]
        @ sweep_mp g spt [ 1.0; 1.25; 1.5; 2.0; 3.0; 5.0 ]
        @ sweep_last g base [ 1.25; 1.5; 2.0; 3.0; 5.0 ]
      in
      check_optima ~fig:("fig14 " ^ d.id) base spt pts;
      print_points ~csv:("fig14_" ^ d.id) ~value:(fun p -> p.max_r)
        ~value_name:"max recreation" pts)
    datasets;
  print_endline
    "\nshape check: MP traces the best storage-vs-maxR frontier; LMG and\n\
     LAST plateau (they optimize storage or sum, and one deep version\n\
     does not move those objectives)."

let fig15 datasets =
  header "Figure 15: undirected case";
  List.iter
    (fun (d : Recipes.dataset) ->
      let du = Recipes.undirected d in
      let g = du.aux in
      let base, spt = base_and_spt g in
      subheader
        (Printf.sprintf
           "dataset %s (undirected)  [MST = %.0f, min sumR = %.0f]" d.id
           (Storage_graph.storage_cost base)
           (Storage_graph.sum_recreation spt));
      let alphas = [ 1.25; 1.5; 2.0; 3.0 ] in
      let lasts = sweep_last g base alphas in
      let pts =
        sweep_lmg g base spt [ 1.05; 1.1; 1.25; 1.5; 2.0; 3.0 ]
        @ sweep_mp g spt [ 1.0; 1.25; 1.5; 2.0; 3.0 ]
        @ lasts
      in
      let fig = "fig15 " ^ d.id in
      check_optima ~fig base spt pts;
      check_last ~fig g base spt alphas lasts;
      print_points ~csv:("fig15_" ^ d.id) ~value:(fun p -> p.sum_r)
        ~value_name:"sum recreation" pts;
      Printf.printf "\n(maxR view, as in Figure 15d)\n";
      print_points ~value:(fun p -> p.max_r) ~value_name:"max recreation" pts)
    datasets;
  print_endline
    "\nshape check: same dominance pattern as the directed case - LMG best\n\
     on sumR, MP best on maxR - now starting from Prim's MST."

(* ------------------------------------------------------------------ *)
(* Figure 16: workload-aware LMG.                                      *)
(* ------------------------------------------------------------------ *)

let fig16 datasets seed =
  header "Figure 16: workload-aware optimization (Zipf(2) access)";
  List.iter
    (fun (d : Recipes.dataset) ->
      let g = d.aux in
      let n = Aux_graph.n_versions g in
      let base, spt = base_and_spt g in
      let cmin = Storage_graph.storage_cost base in
      (* Zipf(2) access frequencies over a random version order. *)
      let rng = Prng.create ~seed in
      let zipf = Zipf.create ~n ~exponent:2.0 in
      let masses = Zipf.masses zipf in
      let order = Array.init n (fun i -> i) in
      Prng.shuffle rng order;
      let freqs = Array.make (n + 1) 0.0 in
      for i = 0 to n - 1 do
        freqs.(order.(i) + 1) <- masses.(i) *. 100_000.0
      done;
      subheader (Printf.sprintf "dataset %s" d.id);
      Printf.printf "%-12s %14s %18s %18s\n" "budget" "storage"
        "LMG weighted R" "LMG-W weighted R";
      let rows = ref [] in
      List.iter
        (fun f ->
          let budget = f *. cmin in
          let blind = Lmg.solve g ~base ~spt ~budget () in
          let aware = Lmg.solve g ~base ~spt ~budget ~freqs () in
          check_optima ~fig:("fig16 " ^ d.id) base spt
            [
              point (Printf.sprintf "LMG %.2fx" f) blind;
              point (Printf.sprintf "LMG-W %.2fx" f) aware;
            ];
          let wb = Storage_graph.weighted_recreation blind ~freqs in
          let wa = Storage_graph.weighted_recreation aware ~freqs in
          rows :=
            [
              Printf.sprintf "%.2f" f;
              Printf.sprintf "%.0f" budget;
              Printf.sprintf "%.0f" wb;
              Printf.sprintf "%.0f" wa;
            ]
            :: !rows;
          Printf.printf "%-12s %14.0f %18.0f %18.0f\n"
            (Printf.sprintf "%.2fx" f)
            budget wb wa)
        [ 1.1; 1.25; 1.5; 2.0; 3.0 ];
      csv_write ("fig16_" ^ d.id)
        [ "budget_factor"; "budget"; "lmg_weighted_r"; "lmgw_weighted_r" ]
        (List.rev !rows))
    datasets;
  print_endline
    "\nshape check: the workload-aware column is never worse, with the\n\
     largest gains at tight budgets; how much a given dataset benefits\n\
     depends on where the hot versions land (the paper saw large gains\n\
     on DC and little on LF; the skew itself is random here)."

(* ------------------------------------------------------------------ *)
(* Figure 17: running time of LMG.                                     *)
(* ------------------------------------------------------------------ *)

let fig17 ~quick seed =
  header "Figure 17: LMG running time vs number of versions";
  let sizes =
    if quick then [ 250; 500; 1000; 2000 ]
    else [ 500; 1000; 2000; 4000; 8000; 16000; 32000 ]
  in
  let max_n = List.fold_left max 0 sizes in
  let mk_history kind n rng =
    match kind with
    | `DC -> History_gen.generate (History_gen.flat_params ~n_commits:n) rng
    | `LC -> History_gen.generate (History_gen.linear_params ~n_commits:n) rng
  in
  List.iter
    (fun symmetric ->
      subheader (if symmetric then "undirected" else "directed");
      Printf.printf "%-10s %16s %16s %16s %16s\n" "versions" "LMG DC (s)"
        "total DC (s)" "LMG LC (s)" "total LC (s)";
      let csv_rows = ref [] in
      let rng = Prng.create ~seed:(seed + if symmetric then 1 else 0) in
      let params =
        { Cost_gen.default_params with symmetric; max_hops = 5; reveal_cap = 12 }
      in
      let big_dc = Cost_gen.generate (mk_history `DC max_n rng) params rng in
      let big_lc = Cost_gen.generate (mk_history `LC max_n rng) params rng in
      List.iter
        (fun n ->
          let run big =
            let sub = Subgraph.bfs_sample big ~n rng in
            let (inputs, prep_t) =
              time (fun () -> base_and_spt sub)
            in
            let base, spt = inputs in
            let budget = 3.0 *. Storage_graph.storage_cost base in
            let (_, lmg_t) =
              time (fun () -> Lmg.solve sub ~base ~spt ~budget ())
            in
            (lmg_t, prep_t +. lmg_t)
          in
          let dc_lmg, dc_total = run big_dc in
          let lc_lmg, lc_total = run big_lc in
          csv_rows :=
            List.map (Printf.sprintf "%.3f")
              [ float_of_int n; dc_lmg; dc_total; lc_lmg; lc_total ]
            :: !csv_rows;
          Printf.printf "%-10d %16.3f %16.3f %16.3f %16.3f\n" n dc_lmg dc_total
            lc_lmg lc_total)
        sizes;
      csv_write
        (if symmetric then "fig17_undirected" else "fig17_directed")
        [ "versions"; "lmg_dc_s"; "total_dc_s"; "lmg_lc_s"; "total_lc_s" ]
        (List.rev !csv_rows))
    [ false; true ];
  print_endline
    "\nshape check: LMG grows near-linearly (each swap re-scores only the\n\
     candidates whose score it moved) and stays well under a second at\n\
     tens of thousands of versions; total time is dominated by MST/MCA+SPT\n\
     preparation at every n, most of all by MCA on directed LC graphs."

(* ------------------------------------------------------------------ *)
(* Table 2: ILP (exact) vs MP on small all-pairs datasets.             *)
(* ------------------------------------------------------------------ *)

(* A small branchy history with a delta revealed between every pair of
   versions, as Table 2 needs for the exact solver. *)
let all_pairs_graph ~name ~rows ~cols ~n rng =
  let history =
    History_gen.generate
      {
        History_gen.n_commits = n;
        branch_interval = 3;
        branch_probability = 0.5;
        branch_limit = 2;
        branch_length = 3;
        merge_probability = 0.2;
      }
      rng
  in
  let data =
    Dataset_gen.generate ~name history
      {
        Dataset_gen.default_params with
        initial_rows = rows;
        initial_cols = cols;
        edit_intensity = 0.08;
        max_hops = 2;
      }
      rng
  in
  Dataset_gen.all_pairs_aux ~contents:data.Dataset_gen.contents
    ~mode:Dataset_gen.Line_directed

let table2 ~quick seed =
  header "Table 2: exact (ILP-equivalent B&B) vs MP, max-recreation bound";
  let sizes = if quick then [ 10; 15 ] else [ 15; 25; 50 ] in
  List.iter
    (fun n ->
      let rng = Prng.create ~seed:(seed + n) in
      let g = all_pairs_graph ~name:"t2" ~rows:60 ~cols:6 ~n rng in
      let dist = Spt.distances g in
      let maxd = Array.fold_left Float.max 0.0 dist in
      Printf.printf "\nv%d (theta in KB, storage in KB):\n" n;
      Printf.printf "%-10s" "theta";
      let thetas = List.map (fun f -> f *. maxd) [ 1.0; 1.1; 1.25; 1.5; 2.0 ] in
      List.iter (fun t -> Printf.printf "%10.2f" (t /. 1024.)) thetas;
      Printf.printf "\n%-10s" "ILP";
      let budget = if quick then 200_000 else 2_000_000 in
      let time_budget = if quick then 5.0 else 45.0 in
      let exact_results =
        List.map
          (fun theta ->
            Exact.solve_p6 g ~theta ~node_budget:budget ~time_budget ())
          thetas
      in
      List.iter
        (fun (r : Exact.result) ->
          match r.tree with
          | Some sg ->
              Printf.printf "%9.2f%s"
                (Storage_graph.storage_cost sg /. 1024.)
                (if r.optimal then " " else "*")
          | None -> Printf.printf "%10s" "-")
        exact_results;
      Printf.printf "\n%-10s" "MP";
      List.iter
        (fun theta ->
          match Mp.solve g ~theta with
          | { Mp.tree = Some sg; _ } ->
              Printf.printf "%9.2f " (Storage_graph.storage_cost sg /. 1024.)
          | { Mp.tree = None; _ } -> Printf.printf "%10s" "-")
        thetas;
      print_newline ())
    sizes;
  print_endline
    "\n(* = node budget exhausted; best incumbent reported, as the paper\n\
     reports Gurobi's best-found on unfinished runs)\n\
     shape check: MP tracks the exact optimum closely, from above; both\n\
     decrease as theta loosens."

(* ------------------------------------------------------------------ *)
(* Table 2b (extension): exact vs LMG on the sum-recreation side.      *)
(* ------------------------------------------------------------------ *)

let table2b ~quick seed =
  header
    "Table 2b (extension): exact (B&B) vs LMG, storage-bounded sum recreation";
  let sizes = if quick then [ 8; 12 ] else [ 10; 15; 20 ] in
  List.iter
    (fun n ->
      let rng = Prng.create ~seed:(seed + n + 1000) in
      let g = all_pairs_graph ~name:"t2b" ~rows:40 ~cols:5 ~n rng in
      let base, spt = base_and_spt g in
      let cmin = Storage_graph.storage_cost base in
      let check label f sg =
        check_optima ~fig:(Printf.sprintf "table2b v%d" n) base spt
          [ point (Printf.sprintf "%s %.2fx" label f) sg ]
      in
      Printf.printf "\nv%d (budget as xMCA, sumR in KB):\n" n;
      let factors = [ 1.05; 1.1; 1.25; 1.5; 2.0 ] in
      Printf.printf "%-10s" "budget";
      List.iter (fun f -> Printf.printf "%10.2f" f) factors;
      Printf.printf "\n%-10s" "ILP";
      List.iter
        (fun f ->
          let r =
            Exact.solve_p3 g ~budget:(f *. cmin)
              ~node_budget:(if quick then 150_000 else 1_000_000)
              ~time_budget:(if quick then 4.0 else 30.0)
              ()
          in
          match r.Exact.tree with
          | Some sg ->
              check "exact" f sg;
              Printf.printf "%9.2f%s"
                (Storage_graph.sum_recreation sg /. 1024.)
                (if r.Exact.optimal then " " else "*")
          | None -> Printf.printf "%10s" "-")
        factors;
      Printf.printf "\n%-10s" "LMG";
      List.iter
        (fun f ->
          let sg = Lmg.solve g ~base ~spt ~budget:(f *. cmin) () in
          check "LMG" f sg;
          Printf.printf "%9.2f " (Storage_graph.sum_recreation sg /. 1024.))
        factors;
      print_newline ())
    sizes;
  print_endline
    "\n(* = search budget exhausted; incumbent reported)\n\
     \ shape check: LMG tracks the exact optimum from above, with the gap\n\
     \ widest at tight budgets - consistent with the paper's expectation\n\
     \ that the average-recreation problems are the easier ones."

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures.                               *)
(* ------------------------------------------------------------------ *)

let ablation ~quick seed =
  header "Ablations: scale, revealing policy, GitH depth bias, delta variants";

  (* A. The MCA-vs-SPT recreation gap grows with the number of
     versions. The paper's 100k-version datasets show a 340x gap in
     sum recreation; the full run measures up to that scale, the quick
     one stops at 4k. Deeper histories -> disproportionately worse MCA
     recreation. *)
  subheader "A. recreation gap vs number of versions (chain-heavy history)";
  Printf.printf "%-10s %14s %14s %16s\n" "versions" "sumR MCA/SPT"
    "maxR MCA/SPT" "storage SPT/MCA";
  let sizes =
    if quick then [ 250; 1000; 4000 ] else [ 250; 1000; 4000; 16000; 100000 ]
  in
  List.iter
    (fun n ->
      let rng = Prng.create ~seed:(seed + n) in
      let history =
        History_gen.generate (History_gen.linear_params ~n_commits:n) rng
      in
      let g =
        Cost_gen.generate history
          {
            Cost_gen.default_params with
            delta_per_hop = 60.0;
            (* small deltas: chains are cheap to store, dear to replay *)
            max_hops = 4;
            reveal_cap = 10;
          }
          rng
      in
      let base, spt = base_and_spt g in
      Printf.printf "%-10d %14.1f %14.1f %16.1f\n" n
        (Storage_graph.sum_recreation base /. Storage_graph.sum_recreation spt)
        (Storage_graph.max_recreation base /. Storage_graph.max_recreation spt)
        (Storage_graph.storage_cost spt /. Storage_graph.storage_cost base))
    sizes;
  print_endline
    "expectation: the ratios grow with n while MCA's delta chains deepen -\n\
     the tradeoff the paper studies becomes more extreme with scale. On\n\
     this generator MCA materializes more versions as n grows and its\n\
     mean chain depth falls past 4k, so sumR MCA/SPT levels off at\n\
     tens, not the paper's ~340x at 100k.";

  (* B. Revealing policy: how much does computing more ∆ entries help?
     (§2.1 discusses that computing all pairwise deltas is infeasible
     and hop-based revealing is the practical middle ground.) *)
  subheader "B. revealed-entry budget (hop radius) vs solution quality";
  Printf.printf "%-10s %12s %14s %16s\n" "max_hops" "deltas" "MCA storage"
    "LMG@1.5x sumR";
  let rng0 = Prng.create ~seed:(seed + 7) in
  let history =
    History_gen.generate
      (History_gen.flat_params ~n_commits:(if quick then 150 else 400))
      rng0
  in
  let tg_rng = Prng.create ~seed:(seed + 8) in
  let data_for hops =
    let rng = Prng.copy tg_rng in
    Dataset_gen.generate history
      {
        Dataset_gen.default_params with
        initial_rows = 80;
        edit_intensity = 0.02;
        max_hops = hops;
        reveal_cap = 1000;
      }
      rng
  in
  List.iter
    (fun hops ->
      let d = data_for hops in
      let g = d.Dataset_gen.aux in
      let base, spt = base_and_spt g in
      let budget = 1.5 *. Storage_graph.storage_cost base in
      let lmg = Lmg.solve g ~base ~spt ~budget () in
      Printf.printf "%-10d %12d %14.0f %16.0f\n" hops d.Dataset_gen.n_deltas
        (Storage_graph.storage_cost base)
        (Storage_graph.sum_recreation lmg))
    [ 1; 2; 4; 8 ];
  print_endline
    "expectation: more revealed entries monotonically improve minimum\n\
     storage, with diminishing returns - missing distant redundancies\n\
     costs little once nearby deltas are known.";

  (* C. GitH's depth bias (Appendix A: the denominator was a later
     addition to git). *)
  subheader "C. GitH depth bias on/off";
  Printf.printf "%-22s %14s %16s %12s\n" "variant" "storage" "sum recreation"
    "max depth";
  let rng = Prng.create ~seed:(seed + 9) in
  let history =
    History_gen.generate
      (History_gen.flat_params ~n_commits:(if quick then 200 else 600))
      rng
  in
  let g = Cost_gen.generate history Cost_gen.default_params rng in
  List.iter
    (fun (name, bias) ->
      match Gith.solve ~depth_bias:bias g ~window:10 ~max_depth:20 with
      | Ok sg ->
          let max_depth = ref 0 in
          for v = 1 to Aux_graph.n_versions g do
            max_depth := max !max_depth (Storage_graph.depth sg v)
          done;
          Printf.printf "%-22s %14.0f %16.0f %12d\n" name
            (Storage_graph.storage_cost sg)
            (Storage_graph.sum_recreation sg)
            !max_depth
      | Error e -> Printf.printf "%-22s failed: %s\n" name e)
    [ ("with depth bias", true); ("raw delta (old git)", false) ];
  print_endline
    "expectation: the bias trades a little storage for shallower\n\
     chains and lower recreation cost - why git added it.";

  (* D. Delta mechanisms (§2.1's variants) on the same version pairs. *)
  subheader "D. delta variants: line vs cell vs xor (+compression)";
  let rng = Prng.create ~seed:(seed + 11) in
  let tg = Table_gen.create rng in
  let a = Table_gen.fresh_table tg ~rows:300 ~cols:8 in
  let b =
    Table_gen.apply tg a
      [
        Table_gen.Modify_cells { fraction = 0.02 };
        Table_gen.Add_rows { at = 10; count = 5 };
      ]
  in
  let ca = Versioning_delta.Csv.print a and cb = Versioning_delta.Csv.print b in
  let module D = Versioning_delta.Delta in
  Printf.printf "%-28s %10s\n" "mechanism" "bytes";
  Printf.printf "%-28s %10d\n" "full version"
    (String.length cb);
  List.iter
    (fun (name, d) ->
      Printf.printf "%-28s %10.0f\n" name (D.storage_cost d))
    [
      ("line diff", D.line_delta ca cb);
      ("line diff + lz77", D.line_delta ~compress:true ca cb);
      ("cell-level delta", D.cell_delta a b);
      ("cell delta + lz77", D.cell_delta ~compress:true a b);
      ("xor", D.xor_delta ca cb);
      ("xor + rle/lz77", D.xor_delta ~compress:true ca cb);
    ];
  print_endline
    "expectation: cell deltas < line deltas for sparse tabular edits;\n\
     raw xor is near the full size once rows shift (alignment breaks),\n\
     so it relies on compression; every delta beats re-storing the\n\
     version.";

  (* E. Chunk-level dedup (Venti / Kulkarni et al., §6 related work)
     vs the paper's delta plans on the same collection. *)
  subheader "E. content-defined-chunk dedup vs delta plans";
  let rng = Prng.create ~seed:(seed + 13) in
  let history =
    History_gen.generate
      (History_gen.flat_params ~n_commits:(if quick then 120 else 400))
      rng
  in
  let d =
    Dataset_gen.generate ~name:"dedup" history
      {
        Dataset_gen.default_params with
        initial_rows = 150;
        edit_intensity = 0.02;
        max_hops = 3;
        reveal_cap = 12;
      }
      rng
  in
  let n = Aux_graph.n_versions d.Dataset_gen.aux in
  let raw = ref 0 in
  let store = Versioning_delta.Chunker.store_create () in
  for v = 1 to n do
    raw := !raw + String.length d.Dataset_gen.contents.(v);
    ignore (Versioning_delta.Chunker.store_add store d.Dataset_gen.contents.(v))
  done;
  let base, spt = base_and_spt d.Dataset_gen.aux in
  Printf.printf "%-32s %14s\n" "strategy" "bytes";
  Printf.printf "%-32s %14d\n" "store every version raw" !raw;
  Printf.printf "%-32s %14d (%d chunks)\n" "CDC dedup (Venti-style)"
    (Versioning_delta.Chunker.store_bytes store)
    (Versioning_delta.Chunker.store_chunks store);
  Printf.printf "%-32s %14.0f\n" "MCA delta plan" (Storage_graph.storage_cost base);
  Printf.printf "%-32s %14.0f\n" "LMG 1.5x delta plan"
    (Storage_graph.storage_cost
       (Lmg.solve d.Dataset_gen.aux ~base ~spt
          ~budget:(1.5 *. Storage_graph.storage_cost base)
          ()));
  print_endline
    "expectation: dedup removes whole-block duplication (far below raw)\n\
     but delta plans capture sub-block redundancy and win - at the cost\n\
     of recreation chains, which is exactly the paper's tradeoff; dedup\n\
     has O(1)-depth retrieval instead.";

  (* F. Reveal policies on fork collections (§2.1: which ∆ entries to
     compute when there is no derivation graph to follow). *)
  subheader "F. reveal policy on forks: size threshold vs MinHash vs all pairs";
  Printf.printf "%-34s %10s %14s %14s\n" "policy" "deltas" "MCA storage"
    "gen time (s)";
  let n_forks = if quick then 40 else 100 in
  List.iter
    (fun (label, reveal) ->
      let rng = Prng.create ~seed:(seed + 17) in
      let (f, t) =
        time (fun () ->
            Fork_gen.generate
              {
                Fork_gen.default_params with
                n_forks;
                base_rows = 150;
                reveal;
              }
              rng)
      in
      let base, _ = base_and_spt f.Fork_gen.aux in
      Printf.printf "%-34s %10d %14.0f %14.2f\n" label f.Fork_gen.n_deltas
        (Storage_graph.storage_cost base)
        t)
    [
      ("size threshold (paper)", Fork_gen.Size_threshold 1500.0);
      ( "MinHash resemblance (top 6)",
        Fork_gen.Resemblance { threshold = 0.2; per_fork_cap = 6 } );
      ("all pairs (upper bound)", Fork_gen.All_pairs);
    ];
  print_endline
    "expectation: resemblance revealing needs far fewer computed deltas\n\
     to get near the all-pairs MCA optimum; the size threshold is\n\
     cheaper to evaluate but blunter.";

  (* G. Cache-aware retrieval: the Figure 16 motivation carried one
     step further - a hot-version cache changes what a plan costs. *)
  subheader "G. retrieval cost under an LRU materialization cache";
  let rng = Prng.create ~seed:(seed + 19) in
  let history =
    History_gen.generate
      (History_gen.flat_params ~n_commits:(if quick then 150 else 400))
      rng
  in
  let g = Cost_gen.generate history Cost_gen.default_params rng in
  let base, spt = base_and_spt g in
  let lmg =
    Lmg.solve g ~base ~spt ~budget:(1.5 *. Storage_graph.storage_cost base) ()
  in
  let stream =
    Retrieval_sim.zipf_stream ~n_versions:(Aux_graph.n_versions g)
      ~length:(if quick then 2000 else 10000)
      ~exponent:2.0 rng
  in
  Printf.printf "%-22s %16s %16s %16s\n" "plan \\ cache slots" "0" "8" "64";
  List.iter
    (fun (label, sg) ->
      let cost slots =
        (Retrieval_sim.run sg ~cache_slots:slots ~accesses:stream)
          .Retrieval_sim.total_cost
      in
      Printf.printf "%-22s %16.0f %16.0f %16.0f\n" label (cost 0) (cost 8)
        (cost 64))
    [ ("MCA", base); ("LMG 1.5x", lmg); ("SPT", spt) ];
  print_endline
    "expectation: with no cache the plans order as their sum-recreation\n\
     costs; a modest cache compresses the gap dramatically on skewed\n\
     workloads (hot chains are paid once) - motivation for the paper's\n\
     adaptive/workload-aware future work."

(* ------------------------------------------------------------------ *)
(* Perf: the multicore pipeline and the checkout cache, measured.      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh on-disk repository in a per-process temp directory. *)
let temp_repo name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dsvc_bench_%s_%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  (dir, ok (Repo.init ~path:dir))

(* [temp_repo] holding [nv] generated versions on one commit-order
   delta chain. *)
let chained_repo name ~nv rng =
  let dir, repo = temp_repo name in
  let history =
    History_gen.generate (History_gen.linear_params ~n_commits:nv) rng
  in
  let data =
    Dataset_gen.generate ~name history
      { Dataset_gen.default_params with initial_rows = 80; max_hops = 1 }
      rng
  in
  let entries =
    List.init nv (fun i ->
        let v = i + 1 in
        ( Printf.sprintf "v%d" v,
          (if v = 1 then [] else [ v - 1 ]),
          data.Dataset_gen.contents.(v) ))
  in
  ignore (ok (Repo.import_versions repo entries));
  (dir, repo)

let perf ~quick ~jobs seed =
  header "Perf: parallel graph construction and checkout chain cache";
  (* Graph construction (the ⟨Δ,Φ⟩ reveal — the pipeline's dominant
     cost) at jobs ∈ {1, --jobs}. Each run regenerates the same history
     from the same seed, so the work is identical and only the domain
     count varies. *)
  let job_list = List.sort_uniq compare [ 1; jobs ] in
  let n = if quick then 300 else 1200 in
  let params = { Cost_gen.default_params with max_hops = 5; reveal_cap = 12 } in
  subheader
    (Printf.sprintf "aux-graph construction, %d versions (ncores=%d)" n
       (Pool.recommended_jobs ()));
  Printf.printf "%-8s %10s %12s %14s\n" "jobs" "edges" "wall (s)" "edges/s";
  List.iter
    (fun j ->
      let rng = Prng.create ~seed:(seed + 23) in
      let history =
        History_gen.generate (History_gen.flat_params ~n_commits:n) rng
      in
      let (g, t) = time (fun () -> Cost_gen.generate ~jobs:j history params rng) in
      let edges = Versioning_graph.Digraph.n_edges (Aux_graph.graph g) in
      add_row "graph_construction"
        [
          ("jobs", Int j); ("versions", Int n); ("edges", Int edges);
          ("wall_s", Float t); ("edges_per_s", Float (per_s edges t));
        ];
      Printf.printf "%-8d %10d %12.3f %14.0f\n" j edges t (per_s edges t))
    job_list;
  (* The checkout chain cache on a real on-disk repository whose
     versions sit on commit-order delta chains: one Zipf stream
     replayed with the materialization cache off and then on (cold in
     both modes: re-enabling starts from an empty table). Checkout
     time is perfbench's checkout_cold; this replay counts the work. *)
  let nv = if quick then 60 else 150 in
  let len = if quick then 400 else 2000 in
  subheader
    (Printf.sprintf "checkout chain cache, %d chained versions, %d accesses" nv
       len);
  let rng = Prng.create ~seed:(seed + 29) in
  let dir, repo = chained_repo "perf" ~nv rng in
  let stream =
    Retrieval_sim.zipf_stream ~n_versions:nv ~length:len ~exponent:2.0 rng
  in
  Printf.printf "%-10s %8s %10s %8s\n" "cache" "hits" "partial" "misses";
  let replay slots =
    Repo.set_cache_slots repo slots;
    let s0 = Repo.cache_stats repo in
    List.iter (fun v -> ignore (ok (Repo.checkout repo v))) stream;
    let s1 = Repo.cache_stats repo in
    Printf.printf "%-10s %8d %10d %8d\n"
      (if slots = 0 then "off" else Printf.sprintf "on (%d)" slots)
      (s1.Repo.hits - s0.Repo.hits)
      (s1.Repo.partial_hits - s0.Repo.partial_hits)
      (s1.Repo.misses - s0.Repo.misses)
  in
  replay 0;
  replay Repo.default_cache_slots;
  Repo.close repo;
  rm_rf dir;
  print_endline
    "\nshape check: construction wall-clock falls as jobs grow (on a\n\
     multi-core runner) with identical edge counts; with the cache on,\n\
     most checkouts of the skewed stream are hits or partial hits (hot\n\
     chains are replayed once, then served or extended from the cache)."

(* ------------------------------------------------------------------ *)
(* cluster: price of replication in the sharded store (DESIGN.md §12). *)
(* ------------------------------------------------------------------ *)

(* In-process [Replicated] views over memory backends — no sockets, so
   the measured delta between member counts is the cost of quorum
   placement, digest verification and handoff bookkeeping themselves.
   The fourth row repeats the 3-member run with one peer returning
   errors: every put must still reach quorum via hinted handoff and
   every read must fail over, with zero client-visible failures. *)
let cluster ~quick seed =
  header "cluster: replicated store put/get throughput (in-process)";
  let blobs = if quick then 150 else 600 in
  let reads = if quick then 1500 else 6000 in
  let contents =
    Array.init blobs (fun i ->
        let n = 64 + ((i * 37) mod 192) in
        String.init n (fun j ->
            Char.chr (32 + (((i * 31) + (j * 7)) mod 95))))
  in
  let digests = Array.map Content_hash.hex contents in
  let stream =
    Array.of_list
      (Retrieval_sim.zipf_stream ~n_versions:blobs ~length:reads ~exponent:1.2
         (Prng.create ~seed:(seed + 32)))
  in
  Printf.printf "%d blobs, %d Zipf reads per configuration\n\n" blobs reads;
  Printf.printf "%-10s %6s %10s %12s %12s %12s\n" "members" "down" "replicas"
    "put (s)" "get (s)" "reads/s";
  let rows = [ (1, 0); (2, 0); (3, 0); (3, 1) ] in
  List.iter
    (fun (m, down) ->
      let name i = Printf.sprintf "node-%d" i in
      let unreachable = Printf.sprintf "%s unreachable" in
      let mk i =
        (* the down member is never self: a peer that errors on every
           op, exercising handoff on puts and failover on reads *)
        if i >= m - down then
          ( name i,
            {
              (Backend.memory ()) with
              Backend.name = name i;
              put = (fun ~digest:_ _ -> Error (unreachable (name i)));
              get = (fun ~digest:_ -> Error (unreachable (name i)));
              mem = (fun ~digest:_ -> false);
              list = (fun () -> []);
              ping = (fun () -> Error (unreachable (name i)));
            } )
        else (name i, Backend.memory ())
      in
      let backends = List.init m mk in
      let t =
        Replicated.create ~replicas:2 ~self:(name 0)
          ~self_backend:(List.assoc (name 0) backends)
          ~peers:(List.filter (fun (n, _) -> n <> name 0) backends)
          ()
      in
      let ((), put_wall) =
        time (fun () ->
            Array.iteri
              (fun i content -> ok (Replicated.put t ~digest:digests.(i) content))
              contents)
      in
      let ((), get_wall) =
        time (fun () ->
            Array.iter
              (fun v ->
                let i = v - 1 in
                let got = ok (Replicated.get t ~digest:digests.(i)) in
                if got <> contents.(i) then
                  failwith (Printf.sprintf "cluster bench: blob %d corrupt" i))
              stream)
      in
      add_row "cluster"
        [
          ("members", Int m); ("down", Int down);
          ("replicas", Int (Replicated.replicas t)); ("blobs", Int blobs);
          ("reads", Int reads); ("put_wall_s", Float put_wall);
          ("get_wall_s", Float get_wall);
          ("reads_per_s", Float (per_s reads get_wall));
        ];
      Printf.printf "%-10d %6d %10d %12.3f %12.3f %12.0f\n" m down
        (Replicated.replicas t) put_wall get_wall (per_s reads get_wall))
    rows;
  print_endline
    "\nshape check: puts slow with member count (quorum fan-out) while\n\
     reads stay near single-member speed (served by the first healthy\n\
     owner); the degraded row completes with zero failed operations\n\
     (handoff covers the dead owner's writes, failover its reads)."

(* ------------------------------------------------------------------ *)
(* concurrency: the event-driven server core under keep-alive load.   *)
(* ------------------------------------------------------------------ *)

(* A real server (event loop, keep-alive, pipelined parsing) on an
   ephemeral port, hammered by N concurrent clients each holding one
   persistent connection — the reuse counter delta proves no
   per-request connection setup happened. The second half prices
   connection reuse for cluster replication traffic: the same blob
   put/get work over one-connection-per-request ("cold") versus a
   kept-alive client ("reused"). *)
let concurrency ~quick =
  header "concurrency: event-loop server under keep-alive load";
  let dir, repo = temp_repo "conc" in
  let _ = ok (Repo.commit repo ~message:"seed" "alpha\nbeta\ngamma") in
  let bound = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        match
          Server.serve repo ~port:0 ~max_connections:2048 ~idle_timeout:120.0
            ~on_listen:(Atomic.set bound) ()
        with
        | Ok () -> ()
        | Error e -> Printf.eprintf "concurrency bench server: %s\n%!" e)
      ()
  in
  while Atomic.get bound = 0 do
    Thread.delay 0.001
  done;
  let port = Atomic.get bound in
  let reuse_counter () =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"dsvc_server_keepalive_reuse_total" k
        then acc +. v
        else acc)
      0.0 (Metrics.snapshot_values ())
  in
  (* One keep-alive request/response on an already-open connection,
     framed by the codec the server and Client use. *)
  let get_stats =
    Http.serialize_request_header ~keep_alive:true ~meth:"GET"
      ~target:"/stats" [ ("Host", "bench") ] ~content_length:0
  in
  let request_once sock parser buf =
    ignore (Unix.write_substring sock get_stats 0 (String.length get_stats));
    let rec read () =
      match Http.Parser.next_response parser with
      | `Response { Http.reply_status = 200; _ } -> ()
      | `Response r ->
          failwith (Printf.sprintf "unexpected response: %d" r.Http.reply_status)
      | `Reject r -> failwith ("bad response: " ^ r.Http.Parser.reject_reason)
      | `Partial ->
          let n = Unix.read sock buf 0 (Bytes.length buf) in
          if n = 0 then failwith "server closed connection";
          Http.Parser.feed parser buf 0 n;
          read ()
    in
    read ()
  in
  subheader "keep-alive latency/throughput by client count";
  Printf.printf "%-10s %10s %12s %10s %10s %12s %10s\n" "clients" "requests"
    "wall (s)" "p50 (ms)" "p99 (ms)" "req/s" "reused";
  let levels = if quick then [ 1; 10; 50 ] else [ 1; 100; 1000 ] in
  let run_level clients =
    let per_client = max 1 ((if quick then 600 else 4000) / clients) in
    let total = clients * per_client in
    let lats = Array.make total 0.0 in
    (* Barrier: every client connects before anyone sends, so the
       level really is N concurrent connections. *)
    let ready = ref 0 and go = ref false in
    let bm = Mutex.create () and bc = Condition.create () in
    let client_thread idx =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let parser = Http.Parser.create () and buf = Bytes.create 4096 in
      Mutex.lock bm;
      incr ready;
      Condition.broadcast bc;
      while not !go do
        Condition.wait bc bm
      done;
      Mutex.unlock bm;
      for i = 0 to per_client - 1 do
        let t0 = Unix.gettimeofday () in
        request_once sock parser buf;
        lats.((idx * per_client) + i) <- Unix.gettimeofday () -. t0
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let reuse0 = reuse_counter () in
    let threads = List.init clients (fun i -> Thread.create client_thread i) in
    Mutex.lock bm;
    while !ready < clients do
      Condition.wait bc bm
    done;
    go := true;
    Condition.broadcast bc;
    Mutex.unlock bm;
    let ((), wall) = time (fun () -> List.iter Thread.join threads) in
    let reused = reuse_counter () -. reuse0 in
    Array.sort compare lats;
    let pct q =
      lats.(min (total - 1) (int_of_float (float_of_int total *. q))) *. 1000.0
    in
    let rps = per_s total wall in
    add_row "concurrency"
      [
        ("clients", Int clients); ("requests", Int total); ("wall_s", Float wall);
        ("p50_ms", Float (pct 0.50)); ("p99_ms", Float (pct 0.99));
        ("requests_per_s", Float rps); ("keepalive_reuse", Float reused);
      ];
    Printf.printf "%-10d %10d %12.3f %10.3f %10.3f %12.0f %10.0f\n" clients
      total wall (pct 0.50) (pct 0.99) rps reused
  in
  List.iter run_level levels;
  (* ---- cold vs reused connections for blob replication traffic ---- *)
  subheader "connection reuse: blob put/get, cold vs kept-alive";
  Printf.printf "%-10s %8s %12s %12s\n" "mode" "ops" "wall (s)" "ops/s";
  let nblobs = if quick then 40 else 150 in
  let contents =
    Array.init nblobs (fun i ->
        let n = 256 + ((i * 53) mod 512) in
        String.init n (fun j -> Char.chr (32 + (((i * 17) + (j * 5)) mod 95))))
  in
  let digests = Array.map Content_hash.hex contents in
  let run_mode mode keepalive =
    let client = Client.connect ~keepalive ~host:"127.0.0.1" ~port () in
    let ((), wall) =
      time (fun () ->
          Array.iteri
            (fun i c -> ok (Client.put_blob client ~digest:digests.(i) c))
            contents;
          Array.iteri
            (fun i d ->
              if ok (Client.get_blob client d) <> contents.(i) then
                failwith "concurrency bench: blob roundtrip mismatch")
            digests)
    in
    Client.close client;
    let ops = 2 * nblobs in
    let rate = per_s ops wall in
    add_row "connection_reuse"
      [
        ("mode", Str mode); ("ops", Int ops); ("wall_s", Float wall);
        ("ops_per_s", Float rate);
      ];
    Printf.printf "%-10s %8d %12.3f %12.0f\n" mode ops wall rate
  in
  run_mode "cold" false;
  (* deletes make the kept-alive run re-put the same blobs (identical
     work) instead of hitting the store's dedup fast path *)
  let cleanup = Client.connect ~host:"127.0.0.1" ~port () in
  Array.iter (fun d -> Client.delete_blob cleanup d) digests;
  Client.close cleanup;
  run_mode "reused" true;
  (* Signal-driven shutdown, exactly as an operator would stop it; the
     flight ring is cleared first so the bench does not leave a
     post-mortem dump in the working directory. *)
  Versioning_obs.Flight.reset ();
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join server;
  Repo.close repo;
  rm_rf dir;
  print_endline
    "\nshape check: p50 stays flat from 1 to N clients (requests\n\
     pipeline through the loop; handler work is serialized), p99 grows\n\
     with queueing; the reused column equals requests minus\n\
     connections, proving keep-alive carried the load; kept-alive blob\n\
     replication beats cold reconnect-per-request."

(* ------------------------------------------------------------------ *)
(* telemetry: workload drift and observed-weight re-planning (§15).    *)
(* ------------------------------------------------------------------ *)

(* The drift observatory end to end: plan a chained repository under
   the uniform-access assumption, replay a heavily skewed Zipf
   checkout stream with the observability gate on, and measure how far
   the ledger says the plan has drifted — then re-plan with
   [--weights observed] at the same budget and price both plans under
   the observed access distribution. *)
let telemetry ~quick seed =
  header "telemetry: cost-model drift under a skewed checkout workload";
  let nv = if quick then 20 else 40 in
  let len = if quick then 200 else 800 in
  let rng = Prng.create ~seed:(seed + 37) in
  let dir, repo = chained_repo "telemetry" ~nv rng in
  (* balanced=1.5 leaves LMG slack to re-allocate toward hot versions;
     at the MCA minimum there is nothing an observed re-plan could
     move, so the comparison would be vacuous *)
  ignore (ok (Repo.optimize repo ~check:false (Repo.Budgeted_sum 1.5)));
  let stream =
    Retrieval_sim.zipf_stream ~n_versions:nv ~length:len ~exponent:2.0 rng
  in
  subheader
    (Printf.sprintf
       "%d chained versions, %d Zipf(2.0) checkouts, budget 1.5x min storage"
       nv len);
  Obs.with_enabled true (fun () ->
      List.iter (fun v -> ignore (ok (Repo.checkout repo v))) stream);
  (* access-weighted Σ recreation of the current plan under the
     ledger's decayed frequencies — the quantity advise prices *)
  let weighted_recreation () =
    let tel = Repo.telemetry repo in
    let costs = Repo.predicted_costs repo in
    let total =
      List.fold_left (fun a (v, _) -> a +. Telemetry.freq_of tel v) 0.0 costs
    in
    if total <= 0.0 then 0.0
    else
      List.fold_left
        (fun a (v, phi) -> a +. (Telemetry.freq_of tel v /. total *. phi))
        0.0 costs
  in
  let drift = Repo.drift_score repo in
  let uniform_weighted = weighted_recreation () in
  ignore
    (ok
       (Repo.optimize repo ~check:false ~weights:Repo.Observed
          (Repo.Budgeted_sum 1.5)));
  let observed_weighted = weighted_recreation () in
  let saving =
    if uniform_weighted > 0.0 then 1.0 -. (observed_weighted /. uniform_weighted)
    else 0.0
  in
  Printf.printf "%-24s %12s\n" "" "value";
  Printf.printf "%-24s %12.3f\n" "drift score" drift;
  Printf.printf "%-24s %12.0f\n" "weighted Phi (uniform)" uniform_weighted;
  Printf.printf "%-24s %12.0f\n" "weighted Phi (observed)" observed_weighted;
  Printf.printf "%-24s %11.1f%%\n" "saving" (100.0 *. saving);
  add_row "telemetry"
    [
      ("versions", Int nv); ("accesses", Int len); ("drift", Float drift);
      ("uniform_weighted", Float uniform_weighted);
      ("observed_weighted", Float observed_weighted); ("saving", Float saving);
    ];
  csv_write "telemetry"
    [ "versions"; "accesses"; "drift"; "uniform_weighted"; "observed_weighted" ]
    [
      [
        string_of_int nv;
        string_of_int len;
        Printf.sprintf "%.4f" drift;
        Printf.sprintf "%.0f" uniform_weighted;
        Printf.sprintf "%.0f" observed_weighted;
      ];
    ];
  Repo.close repo;
  rm_rf dir;
  print_endline
    "\nshape check: the drift score rises well above 0 on a Zipf(2.0)\n\
     stream (a uniform workload scores 0), and re-optimizing with\n\
     --weights observed lowers the access-weighted recreation cost at\n\
     the same storage budget."

(* ------------------------------------------------------------------ *)
(* timeseries: sampling ring throughput and persistence (§16).          *)
(* ------------------------------------------------------------------ *)

(* The cluster-health observatory's hot paths in isolation: record
   cost per sample across many series (every reactor tick pays this,
   so it must stay far below the sampling step), query cost across all
   three downsampling tiers, the render/parse persistence roundtrip,
   and the alert engine's evaluation cost over a populated ring. *)
let timeseries_bench ~quick () =
  header "timeseries: metric ring throughput, downsampling, alert evaluation";
  let nseries = if quick then 32 else 128 in
  let ticks = if quick then 2_000 else 10_000 in
  let names =
    Array.init nseries (fun i -> Printf.sprintf "bench_metric_%03d" i)
  in
  let ts = Timeseries.create ~step:1.0 ~cap:360 () in
  let (), record_wall =
    time (fun () ->
        for tick = 0 to ticks - 1 do
          let now = float_of_int tick in
          Array.iteri
            (fun i name ->
              Timeseries.record ts ~now ~metric:name
                (float_of_int ((tick + i) mod 97)))
            names
        done)
  in
  let records = nseries * ticks in
  let records_per_s = per_s records record_wall in
  (* Three spans per series, one per downsampling tier: 60 s hits the
     fine tier, 1 h the x10 tier, 10 h the x100 tier. *)
  let now = float_of_int ticks in
  let (), query_wall =
    time (fun () ->
        Array.iter
          (fun name ->
            List.iter
              (fun span ->
                ignore
                  (Timeseries.query ts ~metric:name ~since:(now -. span) ~now ()))
              [ 60.0; 3600.0; 36000.0 ])
          names)
  in
  let rendered = Timeseries.render ts in
  let roundtrip_ok =
    match Timeseries.parse rendered with
    | Ok ts' -> Timeseries.equal ts ts'
    | Error _ -> false
  in
  (* Alert engine over a flapping scrape-up SLI: every eval reads the
     short and long burn windows plus the threshold rules. *)
  let alerts = Alerts.create ~rules:(Alerts.default_rules ()) in
  let evals = if quick then 500 else 2_000 in
  for tick = 0 to evals - 1 do
    Timeseries.record ts
      ~now:(float_of_int tick)
      ~metric:"sli:scrape_up"
      (if tick mod 7 = 0 then 0.5 else 1.0)
  done;
  let (), alert_wall =
    time (fun () ->
        for tick = 0 to evals - 1 do
          Alerts.eval alerts ~ts ~now:(float_of_int tick)
        done)
  in
  Printf.printf "%-28s %12s\n" "" "value";
  Printf.printf "%-28s %12d\n" "series x ticks" records;
  Printf.printf "%-28s %12.0f\n" "records/s" records_per_s;
  Printf.printf "%-28s %12.3f\n" "query wall (s)" query_wall;
  Printf.printf "%-28s %12d\n" "render bytes" (String.length rendered);
  Printf.printf "%-28s %12s\n" "roundtrip"
    (if roundtrip_ok then "ok" else "FAILED");
  Printf.printf "%-28s %12.1f\n" "alert evals/ms" (per_s evals alert_wall /. 1000.0);
  add_row "timeseries"
    [
      ("series", Int nseries); ("ticks", Int ticks);
      ("record_wall_s", Float record_wall); ("records_per_s", Float records_per_s);
      ("query_wall_s", Float query_wall);
      ("render_bytes", Int (String.length rendered));
      ("roundtrip_ok", Bool roundtrip_ok); ("alert_evals", Int evals);
      ("alert_wall_s", Float alert_wall);
    ];
  csv_write "timeseries"
    [ "series"; "ticks"; "record_wall_s"; "records_per_s"; "query_wall_s" ]
    [
      [
        string_of_int nseries;
        string_of_int ticks;
        Printf.sprintf "%.4f" record_wall;
        Printf.sprintf "%.0f" records_per_s;
        Printf.sprintf "%.4f" query_wall;
      ];
    ];
  print_endline
    "\nshape check: the ring is bounded (render size stays fixed once\n\
     every tier is full), parse o render is the identity, and one\n\
     record is orders of magnitude cheaper than any plausible sampling\n\
     step.";
  if not roundtrip_ok then failwith "timeseries render/parse roundtrip failed"

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* --out DIR: also write every figure's data series as CSV *)
  let rec find_opt_arg name = function
    | flag :: v :: _ when flag = name -> Some v
    | _ :: tl -> find_opt_arg name tl
    | [] -> None
  in
  csv_dir := find_opt_arg "--out" args;
  let jobs =
    match find_opt_arg "--jobs" args with
    | None -> Pool.default_jobs ()
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ ->
            prerr_endline "--jobs needs a positive integer";
            exit 2)
  in
  let bench_out =
    Option.value (find_opt_arg "--bench-out" args) ~default:"BENCH_2.json"
  in
  (* --check (see the header): observability on whatever the
     environment says, as in [Server.serve]; the baseline is read up
     front because bench_out may be the same file. *)
  let check = List.mem "--check" args in
  if check then Obs.enable ();
  let baseline_path =
    Option.value (find_opt_arg "--baseline" args)
      ~default:"bench/work_counters.json"
  in
  let baseline =
    if not check then []
    else
      match Fsutil.read_file baseline_path with
      | Ok content -> baseline_counters content
      | Error e ->
          Printf.eprintf "bench --check: cannot read baseline %s: %s\n%!"
            baseline_path e;
          exit 2
  in
  let selected =
    let rec drop_opts = function
      | ("--out" | "--jobs" | "--bench-out" | "--baseline") :: _ :: tl ->
          drop_opts tl
      | x :: tl -> x :: drop_opts tl
      | [] -> []
    in
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) (drop_opts args)
  in
  let want name = selected = [] || List.mem name selected in
  (* Every experiment's wall-clock lands in BENCH_2.json. *)
  let run_exp name f =
    if want name then begin
      let ((), t) = time f in
      add_row "experiments" [ ("name", Str name); ("wall_s", Float t) ]
    end
  in
  let scale = if quick then Recipes.Quick else Recipes.Full in
  let seed = 42 in
  Printf.printf "dataset-versioning experiment harness (%s scale, jobs=%d)\n"
    (if quick then "quick" else "full")
    jobs;
  let datasets =
    if want "fig12" || want "sec52" || want "fig13" || want "fig14"
       || want "fig15" || want "fig16"
    then begin
      let (ds, t) = time (fun () -> Recipes.all ~scale ~seed ()) in
      Printf.printf "generated DC/LC/BF/LF in %.1fs\n" t;
      ds
    end
    else []
  in
  let find id = List.find (fun (d : Recipes.dataset) -> d.id = id) datasets in
  run_exp "fig12" (fun () -> fig12 datasets);
  run_exp "sec52" (fun () -> sec52 (find "LF"));
  run_exp "fig13" (fun () -> fig13 datasets);
  run_exp "fig14" (fun () -> fig14 [ find "DC"; find "LF" ]);
  run_exp "fig15" (fun () -> fig15 [ find "DC"; find "LC"; find "BF" ]);
  run_exp "fig16" (fun () -> fig16 [ find "DC"; find "LF" ] seed);
  run_exp "fig17" (fun () -> fig17 ~quick seed);
  run_exp "table2" (fun () -> table2 ~quick seed);
  run_exp "table2b" (fun () -> table2b ~quick seed);
  run_exp "ablation" (fun () -> ablation ~quick seed);
  run_exp "perf" (fun () -> perf ~quick ~jobs seed);
  run_exp "cluster" (fun () -> cluster ~quick seed);
  run_exp "concurrency" (fun () -> concurrency ~quick);
  run_exp "telemetry" (fun () -> telemetry ~quick seed);
  run_exp "timeseries" (fun () -> timeseries_bench ~quick ());
  emit_bench_json bench_out ~quick ~jobs;
  let failed_claims = List.rev !violations in
  List.iter (Printf.printf "claim failed: %s\n") failed_claims;
  if check then begin
    let diffs = counter_diffs ~baseline (work_counters ()) in
    Printf.printf "\nbench --check: %d work counters in %s\n"
      (List.length baseline) baseline_path;
    List.iter (Printf.printf "bench --check: counter %s\n") diffs;
    if diffs <> [] then exit 3;
    print_endline "bench --check: all equal"
  end;
  if failed_claims <> [] then exit 4;
  print_endline "\ndone."
