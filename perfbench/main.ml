(* The dsvc benchmark: four workloads over the repository's public
   API, each generated from --seed and each checked for correct output.

     python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

   serve_mixed    Zipf checkouts and 10 % commits over HTTP, 2 clients
   checkout_cold  in-process checkouts over long commit-order delta chains
   optimize_repo  Repo.optimize cycling three strategies
   plan_sweep     the paper's solver sweep on a content-free graph

   --trace 0 measures the program as shipped and prints the end-to-end
   metrics. --trace 1 runs the same measurement untraced and then
   traced, and prints the per-layer metrics. The layers are timed from
   outside: spans opened here around each operation and around a
   Backend.t wrapper, the program's own spans, and its counters diffed
   across the traced phase. The last line of standard output is the
   JSON result; a failed correctness check sets "correct" to false and
   the exit code to 1. perfbench/README.md explains each workload. *)

open Versioning_core
open Versioning_workload
module Acc = Perfbench_accounting.Accounting
module Prng = Versioning_util.Prng
module Zipf = Versioning_util.Zipf
module Pool = Versioning_util.Pool
module Build_info = Versioning_util.Build_info
module Repo = Versioning_store.Repo
module Backend = Versioning_store.Backend
module Object_store = Versioning_store.Object_store
module Server = Versioning_store.Server
module Client = Versioning_store.Client
module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Flight = Versioning_obs.Flight

(* The seed the sizes were tuned on, and one kept aside to confirm a
   claimed gain on inputs nobody tuned against. *)
let dev_seed = 1
let heldout_seed = 7919

(* Pool domains for the parallel phases (reveal, materialize, Cost_gen),
   fixed so that runs on other machines do the same work. One, the
   shipped default: on a shared 2-vCPU machine, optimize_repo with two
   domains spread by 30 % from run to run, as the second vCPU came and
   went, and by 9 % with one. *)
let jobs = 1

(* Every workload sets up this many times from scratch and reports the
   median, so set-up work shows in setup_s with a steady value. *)
let setup_reps = 5

(* Workload sizes. *)
let serve_versions = 400
let serve_clients = 2
let commit_share = 0.1
let zipf_exponent = 1.1
let cold_versions = 400
let optimize_versions = 150
let sweep_versions = 250
let sweep_graphs = 24

let trace_capacity = 1 lsl 20
let now = Unix.gettimeofday
let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let div a b = if b = 0.0 then 0.0 else a /. b

let median = function
  | [] -> 0.0
  | xs -> Acc.percentile (Array.of_list (List.sort Float.compare xs)) 0.5

(* ---- machine speed ---- *)

(* The benchmark shares its machine, and the same code runs faster or
   slower by up to half, within a run and between runs, as the
   neighbours' load comes and goes. Every timing in the JSON is
   therefore given at a nominal machine speed: a reference task of the
   benchmark's own, which no change to the program can alter, is timed
   beside the operations, and each duration is scaled by
   [ref_nominal_s] over the reference's recent time. The report prints
   the factor; on an idle machine it is about 1. *)
let ref_nominal_s = 0.0025

(* Sorting a fixed array of ints with a closure compare: branchy,
   call-heavy code in cache, like the program's own. On a shared 2-vCPU
   machine, checkout_cold's 2-second medians tracked this task's time
   with correlation 0.99, where MD5 over 256 KiB or a pointer walk over
   4 MiB tracked them far less. It allocates nothing, so the program's
   heap and collections do not affect it. *)
let ref_input = Array.init 10_000 (fun k -> (k * 7919) land 65535)

(* One tracker per domain that times operations. *)
type speed = {
  work : int array;  (** the reference's scratch copy of [ref_input] *)
  mutable recent : float list;  (** the last [speed_window] reference times *)
  mutable factor : float;  (** nominal / median of [recent] *)
  mutable next_at : float;
  mutable factors : float list;  (** every factor taken, for the report *)
}

let speed_interval = 0.25
let speed_window = 5

let new_speed () =
  { work = Array.make (Array.length ref_input) 0; recent = []; factor = 1.0; next_at = 0.0; factors = [] }

(* The main domain's tracker; the report prints its factors. *)
let speed = new_speed ()

let reference sp =
  let t0 = now () in
  Array.blit ref_input 0 sp.work 0 (Array.length ref_input);
  Array.sort Int.compare sp.work;
  now () -. t0

(* Time the reference, best of three, and take the factor from the
   recent window's median. The first run after an operation finds the
   cache cold, and how cold depends on the program's memory: alone, it
   read a quarter slower on one plan_sweep seed than on another, every
   time. The median keeps one preempted sample from counting. *)
let sample_speed sp =
  let t = Float.min (reference sp) (Float.min (reference sp) (reference sp)) in
  sp.recent <- List.filteri (fun i _ -> i < speed_window) (t :: sp.recent);
  sp.factor <- ref_nominal_s /. median sp.recent;
  sp.factors <- sp.factor :: sp.factors;
  sp.next_at <- now () +. speed_interval

let maybe_sample_speed sp = if now () >= sp.next_at then sample_speed sp

(* A fresh window, for a phase that must not lean on earlier samples. *)
let fill_speed_window sp =
  sp.recent <- [];
  for _ = 1 to speed_window do
    sample_speed sp
  done

(* ---- latency samples ---- *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let concat_samples ss =
  let out = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do push out s.data.(i) done) ss;
  out

type summary = { n : int; p50 : float; tail_label : string; tail : float }

(* [~tail:false] for the workloads whose runs hold a few dozen
   operations at most: no percentile above the median has ten samples
   beyond it there, and fixing that per workload keeps the reported
   percentile from changing with the run's operation count. *)
let summarize ?(tail = true) s =
  if s.len = 0 then { n = 0; p50 = 0.0; tail_label = "p50"; tail = 0.0 }
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort Float.compare a;
    let tail_label, q = if tail then Acc.tail_label s.len else ("p50", 0.5) in
    { n = s.len; p50 = Acc.percentile a 0.5; tail_label; tail = Acc.percentile a q }
  end

(* ---- the traced phase ---- *)

(* On only while a traced phase runs: harness spans and backend
   timings. Read from the client domains of serve_mixed. *)
let tracing = Atomic.make false
let span name f = if Atomic.get tracing then Trace.with_span name f else f ()

(* Backend time and volume, accumulated by the wrapper below. *)
type io = {
  mutable get_s : float;
  mutable gets : int;
  mutable put_s : float;
  mutable puts : int;
  mutable put_bytes : float;
}

let io = { get_s = 0.0; gets = 0; put_s = 0.0; puts = 0; put_bytes = 0.0 }
let io_lock = Mutex.create ()

let io_reset () =
  Mutex.protect io_lock (fun () ->
      io.get_s <- 0.0;
      io.gets <- 0;
      io.put_s <- 0.0;
      io.puts <- 0;
      io.put_bytes <- 0.0)

(* The filesystem backend with each get and put timed under a span.
   Handed to Repo.init_with, it changes only Object_store.get_stream's
   filesystem fast path, which no workload takes. *)
let timed_backend (b : Backend.t) =
  let timed name record f =
    if not (Atomic.get tracing) then f ()
    else
      Trace.with_span name (fun () ->
          let t0 = now () in
          let r = f () in
          let dt = now () -. t0 in
          Mutex.protect io_lock (fun () -> record dt);
          r)
  in
  {
    b with
    Backend.get =
      (fun ~digest ->
        timed "backend.get"
          (fun dt ->
            io.get_s <- io.get_s +. dt;
            io.gets <- io.gets + 1)
          (fun () -> b.Backend.get ~digest));
    put =
      (fun ~digest content ->
        timed "backend.put"
          (fun dt ->
            io.put_s <- io.put_s +. dt;
            io.puts <- io.puts + 1;
            io.put_bytes <- io.put_bytes +. float_of_int (String.length content))
          (fun () -> b.Backend.put ~digest content));
  }

(* What one traced phase observed. *)
type traced = {
  spans : Acc.span list;
  wrapped : bool;  (** the span ring overflowed: spans are missing *)
  count : int;  (** spans recorded *)
  before : (string * float) list;
  after : (string * float) list;
}

let with_tracing f =
  let was_on = Obs.enabled () in
  Obs.enable ();
  Trace.set_capacity trace_capacity;
  io_reset ();
  let before = Metrics.snapshot_values () in
  Atomic.set tracing true;
  let r = Fun.protect ~finally:(fun () -> Atomic.set tracing false) f in
  let after = Metrics.snapshot_values () in
  let spans =
    List.map
      (fun (s : Trace.span) ->
        { Acc.id = s.Trace.id; parent = s.parent; name = s.name; dur = s.dur })
      (Trace.spans ())
  in
  let wrapped = Trace.span_count () > Trace.capacity () in
  if not was_on then Obs.disable ();
  (r, { spans; wrapped; before; after; count = Trace.span_count () })

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A counter (or histogram _sum/_count) summed over the series whose
   labels contain [label]. *)
let sample snap ?(label = "") name =
  List.fold_left
    (fun acc (k, v) ->
      if
        k = name
        || String.starts_with ~prefix:(name ^ "{") k
           && (label = "" || contains k label)
      then acc +. v
      else acc)
    0.0 snap

let diff tr ?label name = sample tr.after ?label name -. sample tr.before ?label name
let is_bench name = String.starts_with ~prefix:"bench." name

let span_stats tr name =
  List.fold_left
    (fun (count, dur) (s : Acc.span) ->
      if s.name = name then (count + 1, dur +. s.dur) else (count, dur))
    (0, 0.0) tr.spans

(* ---- results ---- *)

type metric = string * float * string

type result = {
  attempted : int;
  failed : int;
  problems : string list;
  end_to_end : metric list;  (** the JSON metrics of --trace 0 *)
  named : (metric * string) list;
      (** the workload's own metrics, printed by name with a note *)
  layers : (string * float) list;  (** per-layer values; absent = 0 *)
  accounting : Acc.t option;
}

(* Every per-layer metric, reported on every workload: a layer a
   workload does not cross reads 0, the predicted no-change. *)
let per_layer_units =
  [
    ("server.checkout_handler_ms", "ms");
    ("server.commit_handler_ms", "ms");
    ("server.wait_ms", "ms");
    ("server.keepalive_reuse_ratio", "ratio");
    ("client.retries", "count");
    ("client.new_connections", "count");
    ("repo.cache_hit_ratio", "ratio");
    ("repo.cache_partial_ratio", "ratio");
    ("repo.objects_per_checkout", "count/op");
    ("repo.bytes_per_checkout", "B/op");
    ("backend.get_ms", "ms");
    ("store.get_ms", "ms");
    ("store.verify_ms", "ms");
    ("backend.put_ms", "ms");
    ("backend.puts", "count/op");
    ("backend.bytes_written_per_user_byte", "ratio");
    ("delta.replay_ms", "ms");
    ("delta.decodes", "count/op");
    ("delta.encodes", "count/op");
    ("optimize.load_contents_s", "s");
    ("optimize.diff_sizes_s", "s");
    ("optimize.solve_s", "s");
    ("optimize.materialize_s", "s");
    ("optimize.verify_s", "s");
    ("optimize.gc_s", "s");
    ("optimize.unattributed_s", "s");
    ("optimize.objects_rewritten", "count/op");
    ("pool.busy_ratio", "ratio");
    ("pool.parallel_calls", "count/op");
    ("solve.mca_s", "s");
    ("solve.spt_s", "s");
    ("solve.lmg_s", "s");
    ("solve.mp_s", "s");
    ("solve.last_s", "s");
    ("solve.gith_s", "s");
    ("solve.check_s", "s");
    ("lmg.swap_accept_ratio", "ratio");
    ("mca.cycles_contracted", "count/op");
    ("mp.edges_relaxed", "count/op");
    ("gith.candidates_scanned", "count/op");
    ("obs.overhead_ratio", "ratio");
    ("traced_total_s", "s");
    ("unattributed_s", "s");
    ("unattributed_share", "ratio");
  ]

let optimize_phases =
  [ "load_contents"; "diff_sizes"; "solve"; "materialize"; "verify"; "gc" ]

let solvers = [ "mca"; "spt"; "lmg"; "mp"; "last"; "gith" ]

(* The layer metrics every workload derives the same way, per primary
   operation ([ops]); the workload adds or overrides the rest. *)
let common_layers tr ~ops =
  let ops = float_of_int (max 1 ops) in
  let d = diff tr in
  let store_get_s = d "dsvc_store_get_seconds_sum"
  and store_gets = d "dsvc_store_get_seconds_count" in
  let busy = d "dsvc_pool_worker_busy_seconds_sum"
  and idle = d "dsvc_pool_worker_idle_seconds_sum" in
  let n_opt, opt_total = span_stats tr "optimize" in
  let per_opt x = div x (float_of_int n_opt) in
  let phase p = snd (span_stats tr ("optimize." ^ p)) in
  let selfs = Acc.self_times ~is_root:is_bench tr.spans in
  let self name = Option.value (List.assoc_opt name selfs) ~default:0.0 in
  [
    ("client.retries", d "dsvc_client_retries_total");
    ("client.new_connections", d ~label:"mode=\"new\"" "dsvc_client_connections_total");
    ( "server.keepalive_reuse_ratio",
      div (d "dsvc_server_keepalive_reuse_total") (d "dsvc_server_requests_total") );
    ("backend.get_ms", 1000.0 *. div io.get_s (float_of_int io.gets));
    ("store.get_ms", 1000.0 *. div store_get_s store_gets);
    ("store.verify_ms", 1000.0 *. div (store_get_s -. io.get_s) store_gets);
    ("backend.put_ms", 1000.0 *. div io.put_s (float_of_int io.puts));
    ("backend.puts", float_of_int io.puts /. ops);
    ("delta.decodes", d "dsvc_delta_line_decode_total" /. ops);
    ("delta.encodes", d "dsvc_delta_line_encode_total" /. ops);
    ( "optimize.unattributed_s",
      per_opt
        (opt_total -. List.fold_left (fun acc p -> acc +. phase p) 0.0 optimize_phases) );
    ("optimize.objects_rewritten", d "dsvc_store_optimize_objects_rewritten_total" /. ops);
    ("pool.busy_ratio", div busy (busy +. idle));
    ("pool.parallel_calls", d "dsvc_pool_parallel_calls_total" /. ops);
    ( "lmg.swap_accept_ratio",
      div
        (d ~label:"algo=\"lmg\"" "dsvc_solver_swaps_accepted_total")
        (d ~label:"algo=\"lmg\"" "dsvc_solver_swaps_considered_total") );
    ("mca.cycles_contracted", d ~label:"algo=\"mca\"" "dsvc_solver_cycles_contracted_total" /. ops);
    ("mp.edges_relaxed", d ~label:"algo=\"mp\"" "dsvc_solver_edges_relaxed_total" /. ops);
    ("gith.candidates_scanned", d ~label:"algo=\"gith\"" "dsvc_solver_candidates_scanned_total" /. ops);
  ]
  @ List.map (fun p -> ("optimize." ^ p ^ "_s", per_opt (phase p))) optimize_phases
  @ List.map (fun a -> ("solve." ^ a ^ "_s", self ("solve." ^ a) /. ops)) solvers

(* Layers named in [layer_of] get their spans' self time; everything
   else inside a bench.* span is unattributed. *)
let account tr ~total ~layer_of ?(extra = []) () =
  let selfs = Acc.self_times ~is_root:is_bench tr.spans in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun (name, s) ->
      match layer_of name with
      | Some l ->
          let prev = Option.value (Hashtbl.find_opt layers l) ~default:0.0 in
          Hashtbl.replace layers l (prev +. s)
      | None -> ())
    selfs;
  List.iter
    (fun (l, s) ->
      let prev = Option.value (Hashtbl.find_opt layers l) ~default:0.0 in
      Hashtbl.replace layers l (prev +. s))
    extra;
  Acc.make ~total
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers []))

(* The store's digest check: Object_store.get time not spent in the
   backend. It sits inside whichever span read the store. *)
let verify_time tr =
  let backend_get = snd (span_stats tr "backend.get") in
  diff tr "dsvc_store_get_seconds_sum" -. backend_get

(* ---- inputs and set-up ---- *)

type ctx = { seed : int; seconds : float; trace : bool; tmp : string }

type versions = {
  history : History_gen.t;
  contents : string array;  (** index [1..n] *)
  logical : float;  (** Σ content bytes *)
}

let n_of v = Array.length v.contents - 1

(* Versions of one CSV table. The history's shape is a fixed parameter
   of each workload, like its version count, drawn once from
   [history_seed]; --seed draws the contents. Every version keeps
   [table_rows] rows of fixed-width cells, so content size — and with
   it every diff, read and replay — costs the same whatever the seed,
   and only which rows change varies. A version replaces a few
   rows of its first parent's table, except every [chain_break]-th,
   which rewrites a whole column: its delta outgrows the content, so it
   is stored in full, as after a schema change, and commit-order delta
   chains stay a few dozen deep. *)
let table_rows = 120
let table_cols = 8
let row_edits = 3
let chain_break = 24
let history_seed = 17

let gen_versions ~seed ~dense ~n =
  let shape =
    if dense then History_gen.flat_params ~n_commits:n
    else History_gen.linear_params ~n_commits:n
  in
  let history = History_gen.generate shape (Prng.create ~seed:history_seed) in
  let rng = Prng.create ~seed in
  let cell () = Printf.sprintf "%08d" (Prng.int rng 100_000_000) in
  let row () = Array.init table_cols (fun _ -> cell ()) in
  let tables = Array.make (n + 1) [||] in
  let contents = Array.make (n + 1) "" in
  for v = 1 to n do
    let t =
      match History_gen.first_parent history v with
      | None -> Array.init table_rows (fun _ -> row ())
      | Some p ->
          let t = Array.map Array.copy tables.(p) in
          if v mod chain_break = 0 then begin
            let c = Prng.int rng table_cols in
            Array.iter (fun r -> r.(c) <- cell ()) t
          end
          else
            for _ = 1 to row_edits do
              t.(Prng.int rng table_rows) <- row ()
            done;
          t
    in
    tables.(v) <- t;
    contents.(v) <-
      String.concat ""
        (Array.to_list (Array.map (fun r -> String.concat "," (Array.to_list r) ^ "\n") t))
  done;
  let logical = ref 0.0 in
  for v = 1 to n do
    logical := !logical +. float_of_int (String.length contents.(v))
  done;
  { history; contents; logical = !logical }

(* Commit order, with each version's derivation parents. *)
let entries v =
  List.init (n_of v) (fun i ->
      let id = i + 1 in
      (Printf.sprintf "v%d" id, v.history.History_gen.parents.(id), v.contents.(id)))

let init_repo dir =
  let backend = ok "object store" (Backend.fs ~dir:(Repo.objects_dir dir)) in
  ok "init"
    (Repo.init_with ~store:(Object_store.of_backend (timed_backend backend)) ~path:dir)

(* Set up [setup_reps] times from scratch, each timed at nominal speed;
   keep the last. *)
let repeated_setup ?(reps = setup_reps) build discard =
  fill_speed_window speed;
  let rec go i times =
    sample_speed speed;
    let t0 = now () in
    let x = build i in
    let times = ((now () -. t0) *. speed.factor) :: times in
    if i + 1 < reps then begin
      discard x;
      go (i + 1) times
    end
    else (x, median times)
  in
  go 0 []

(* A repository of [v]'s versions imported in commit order, optionally
   re-planned, in a fresh directory [dir]. *)
let build_repo v ?plan dir =
  let repo = init_repo dir in
  ignore (ok "import" (Repo.import_versions repo (entries v)));
  (match plan with
  | Some s -> ignore (ok "optimize" (Repo.optimize repo ~jobs s))
  | None -> ());
  repo

let repo_setup ctx v ?plan () =
  repeated_setup
    (fun i -> build_repo v ?plan (Filename.concat ctx.tmp (Printf.sprintf "repo%d" i)))
    (fun repo ->
      Repo.close repo;
      rm_rf (Repo.root repo))

(* ---- single-threaded closed loop ---- *)

type phase = {
  lat : samples;  (** latencies of the operations that passed their check *)
  busy : float;  (** Σ latency over every attempted operation *)
  wall : float;
  attempted : int;
  failed : int;
}

(* Run [op i] back to back for [seconds], each under a bench.<name>
   span when traced; [check] runs outside the timer. With [settle],
   a full major collection precedes each operation, outside the timer,
   so that a long operation pays for its own garbage and not for a
   share of its predecessor's. [lat] holds latencies at nominal speed,
   [busy] the raw time. *)
let closed_loop ?(settle = false) ~seconds ~name op check =
  let lat = samples () in
  let busy = ref 0.0 and attempted = ref 0 and failed = ref 0 in
  fill_speed_window speed;
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline do
    if settle then Gc.full_major ();
    maybe_sample_speed speed;
    let i = !attempted in
    incr attempted;
    let t0 = now () in
    let r = span name (fun () -> op i) in
    let dt = now () -. t0 in
    busy := !busy +. dt;
    if check i r then push lat (dt *. speed.factor) else incr failed
  done;
  { lat; busy = !busy; wall = now () -. t_start; attempted = !attempted; failed = !failed }

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
                kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Peak RSS of the untraced phase, read before any traced phase runs. *)
let untraced_peak_mb = ref 0.0

let untraced f =
  let r = f () in
  untraced_peak_mb := peak_rss_mb ();
  (r, None)

let spans_recorded = ref 0

(* A wrapped ring would silently drop spans from the accounting. *)
let traced f =
  let r, tr = with_tracing f in
  if tr.wrapped then failwith "trace ring wrapped: raise trace_capacity";
  spans_recorded := !spans_recorded + tr.count;
  (r, Some tr)

(* Peak RSS counts from here on: set-up garbage is compacted away and
   the kernel's high-water mark restarts, so the figure is the measured
   phase's own and not an accident of when set-up's collections ran. *)
let reset_peak_rss () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let phases ctx run =
  reset_peak_rss ();
  let plain, _ = untraced run in
  let traced_phase = if ctx.trace then Some (traced run) else None in
  (plain, traced_phase)

let overhead ~plain ~traced_p50 = div traced_p50 plain.p50

(* The JSON metrics of --trace 0. Throughput stays in the report only:
   for the single-caller workloads it is the mean's reciprocal, and on
   a shared machine it swings as widely as the median without adding
   to it. *)
let e2e ~setup_s ~op ~storage ~recreation =
  [
    ("setup_s", setup_s, "s");
    ("peak_rss_mb", !untraced_peak_mb, "MB");
    ("op_p50_ms", 1000.0 *. op.p50, "ms");
    ("op_tail_ms", 1000.0 *. op.tail, "ms");
    ("plan_storage_ratio", storage, "ratio");
    ("plan_recreation_ratio", recreation, "ratio");
  ]

(* The median, and the tail when the sample supports one above it. *)
let latency_rows name ~unit_scale ~unit_ (s : summary) =
  ((name ^ "_p50_" ^ unit_, unit_scale *. s.p50, unit_), Printf.sprintf "n=%d" s.n)
  ::
  (if s.tail_label = "p50" then []
   else
     [
       ( (Printf.sprintf "%s_%s_%s" name s.tail_label unit_, unit_scale *. s.tail, unit_),
         Printf.sprintf "%s of n=%d" s.tail_label s.n );
     ])

let common_rows ~setup_s ~attempted ~failed =
  [
    (("setup_s", setup_s, "s"), "median of the run's set-ups");
    ( ("failed_ratio", div (float_of_int failed) (float_of_int attempted), "ratio"),
      Printf.sprintf "%d/%d" failed attempted );
    (("peak_rss_mb", !untraced_peak_mb, "MB"), "VmHWM of the untraced phase");
  ]

(* ---- checkout_cold ---- *)

let checkout_cold ctx =
  let v = gen_versions ~seed:ctx.seed ~dense:false ~n:cold_versions in
  let n = n_of v in
  let repo, setup_s = repo_setup ctx v () in
  let plan = Repo.stats repo in
  let run_with offset () =
    let rng = Prng.create ~seed:((ctx.seed * 31) + offset) in
    let cs0 = Repo.cache_stats repo in
    let ph =
      closed_loop ~seconds:ctx.seconds ~name:"bench.checkout"
        (fun _ ->
          let id = 1 + Prng.int rng n in
          (id, Repo.checkout repo id))
        (fun _ (id, r) -> r = Ok v.contents.(id))
    in
    (ph, cs0, Repo.cache_stats repo)
  in
  let (plain, _, _), traced_phase = phases ctx (run_with 1) in
  let op = summarize plain.lat in
  let layers, accounting, attempted, failed =
    match traced_phase with
    | None -> ([], None, plain.attempted, plain.failed)
    | Some ((ph, cs0, cs1), tr) ->
        let tr = Option.get tr in
        let checkouts = float_of_int ph.attempted in
        let hits = float_of_int (cs1.Repo.hits - cs0.Repo.hits)
        and partial = float_of_int (cs1.Repo.partial_hits - cs0.Repo.partial_hits)
        and misses = float_of_int (cs1.Repo.misses - cs0.Repo.misses) in
        let lookups = hits +. partial +. misses in
        let common = common_layers tr ~ops:ph.attempted in
        let objects = float_of_int io.gets /. checkouts in
        let store_get_ms = List.assoc "store.get_ms" common in
        let verify = verify_time tr in
        let acc =
          account tr ~total:ph.busy
            ~layer_of:(function
              | "backend.get" -> Some "backend.get"
              | "bench.checkout" -> Some "delta.replay"
              | _ -> None)
            ~extra:[ ("store.verify", verify); ("delta.replay", -.verify) ]
            ()
        in
        ( [
            ("repo.cache_hit_ratio", div hits lookups);
            ("repo.cache_partial_ratio", div partial lookups);
            ("repo.objects_per_checkout", objects);
            ("repo.bytes_per_checkout", diff tr "dsvc_store_get_bytes_total" /. checkouts);
            ("delta.replay_ms", (1000.0 *. ph.busy /. checkouts) -. (objects *. store_get_ms));
            ("obs.overhead_ratio", overhead ~plain:op ~traced_p50:(summarize ph.lat).p50);
          ]
          @ common,
          Some acc,
          plain.attempted + ph.attempted,
          plain.failed + ph.failed )
  in
  Repo.close repo;
  let ops_per_s = float_of_int op.n /. plain.busy in
  let storage = float_of_int plan.Repo.storage_bytes /. v.logical
  and recreation = plan.Repo.sum_recreation_bytes /. v.logical in
  {
    attempted;
    failed;
    problems = [];
    end_to_end = e2e ~setup_s ~op ~storage ~recreation;
    named =
      common_rows ~setup_s ~attempted:plain.attempted ~failed:plain.failed
      @ latency_rows "checkout" ~unit_scale:1000.0 ~unit_:"ms" op
      @ [
          (("ops_per_s", ops_per_s, "1/s"), "checkouts, 1 in-process caller");
          (("storage_per_byte", storage, "ratio"), "shipped commit-order plan");
          (("recreation_per_byte", recreation, "ratio"), "shipped commit-order plan");
          ( ("max_chain", float_of_int plan.Repo.max_chain, "versions"),
            Printf.sprintf "%d versions, 16-slot cache" n );
        ];
    layers;
    accounting;
  }

(* ---- serve_mixed ---- *)

type client_run = {
  checkouts : samples;
  commits : samples;
  written : (int * string) list;  (** acknowledged commits: id, content *)
  c_busy : float;
  c_wall : float;
  c_attempted : int;
  c_failed : int;
  user_bytes : float;
  c_factors : float list;  (** the client's speed factors *)
}

let start_server repo =
  let port = ref None in
  let m = Mutex.create () and c = Condition.create () in
  let thread =
    Thread.create
      (fun () ->
        match
          Server.serve repo ~port:0 ~idle_timeout:120.0
            ~on_listen:(fun p ->
              Mutex.protect m (fun () ->
                  port := Some p;
                  Condition.signal c))
            ()
        with
        | Ok () -> ()
        | Error e -> Printf.eprintf "perfbench: server: %s\n%!" e)
      ()
  in
  let p =
    Mutex.protect m (fun () ->
        while !port = None do
          Condition.wait c m
        done;
        Option.get !port)
  in
  (thread, p)

(* Stop the server the way an operator does; the flight ring is
   cleared first so shutdown writes no post-mortem dump. *)
let stop_server thread =
  Flight.reset ();
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join thread

let serve_mixed ctx =
  let v = gen_versions ~seed:ctx.seed ~dense:true ~n:serve_versions in
  let n = n_of v in
  let plan = Repo.Budgeted_sum 1.5 in
  let repo, setup_s = repo_setup ctx v ~plan () in
  let served = Repo.stats repo in
  let ranks = Array.init n (fun i -> i + 1) in
  Prng.shuffle (Prng.create ~seed:((ctx.seed * 31) + 5)) ranks;
  let zipf = Zipf.create ~n ~exponent:zipf_exponent in
  (* One closed-loop client on its own domain, so each keeps its own
     trace context and span stack. *)
  let client ~port ~phase ~deadline idx () =
    let rng = Prng.create ~seed:((ctx.seed * 31) + (phase * 8) + idx) in
    let c = Client.connect ~host:"127.0.0.1" ~port () in
    let sp = new_speed () in
    fill_speed_window sp;
    let checkouts = samples () and commits = samples () in
    let written = ref [] and busy = ref 0.0 and user_bytes = ref 0.0 in
    let attempted = ref 0 and failed = ref 0 in
    let t_start = now () in
    while now () < deadline do
      maybe_sample_speed sp;
      let i = !attempted in
      incr attempted;
      let id = ranks.(Zipf.sample zipf rng - 1) in
      if Prng.bernoulli rng commit_share then begin
        let body =
          v.contents.(id)
          ^ Printf.sprintf "bench,%d,%d,%d,%d\n" phase idx i (Prng.int rng 1_000_000)
        in
        let t0 = now () in
        let r =
          span "bench.commit" (fun () -> Client.commit c ~message:"bench" ~parents:[ id ] body)
        in
        let dt = now () -. t0 in
        busy := !busy +. dt;
        match r with
        | Ok new_id ->
            push commits (dt *. sp.factor);
            user_bytes := !user_bytes +. float_of_int (String.length body);
            written := (new_id, body) :: !written
        | Error _ -> incr failed
      end
      else begin
        let t0 = now () in
        let r = span "bench.checkout" (fun () -> Client.checkout c (string_of_int id)) in
        let dt = now () -. t0 in
        busy := !busy +. dt;
        if r = Ok v.contents.(id) then push checkouts (dt *. sp.factor) else incr failed
      end
    done;
    let wall = now () -. t_start in
    Client.close c;
    {
      checkouts;
      commits;
      written = !written;
      c_busy = !busy;
      c_wall = wall;
      c_attempted = !attempted;
      c_failed = !failed;
      user_bytes = !user_bytes;
      c_factors = sp.factors;
    }
  in
  (* Every acknowledged commit must read back, checked after the loop. *)
  let read_back ~port runs =
    let c = Client.connect ~host:"127.0.0.1" ~port () in
    let bad =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun (id, body) ->
              if Client.checkout c (string_of_int id) = Ok body then None
              else Some (Printf.sprintf "commit %d does not read back" id))
            r.written)
        runs
    in
    Client.close c;
    bad
  in
  (* One phase: a server on [repo], the clients' closed loop, the
     read-back check, shutdown. Each client tracks the machine's speed
     on its own domain. *)
  let serve_phase repo ~phase wrap =
    let server, port = start_server repo in
    let cs0 = Repo.cache_stats repo in
    let deadline = now () +. ctx.seconds in
    let runs, tr =
      wrap (fun () ->
          List.map Domain.join
            (List.init serve_clients (fun idx ->
                 Domain.spawn (client ~port ~phase ~deadline idx))))
    in
    List.iter (fun r -> speed.factors <- r.c_factors @ speed.factors) runs;
    let cs1 = Repo.cache_stats repo in
    let bad = read_back ~port runs in
    stop_server server;
    (runs, cs0, cs1, tr, bad)
  in
  let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
  reset_peak_rss ();
  let plain, _, _, _, problems = serve_phase repo ~phase:1 untraced in
  (* The traced phase gets a repository of its own: the first phase's
     commits would otherwise make its meta saves, and so every request
     queued behind them, slower. *)
  let traced_phase =
    if not ctx.trace then None
    else begin
      let repo = build_repo v ~plan (Filename.concat ctx.tmp "repo-traced") in
      let r = serve_phase repo ~phase:2 traced in
      Repo.close repo;
      Some r
    end
  in
  let co = summarize (concat_samples (List.map (fun r -> r.checkouts) plain)) in
  let cm = summarize (concat_samples (List.map (fun r -> r.commits) plain)) in
  let wall = List.fold_left (fun acc r -> Float.max acc r.c_wall) 0.0 plain in
  let ops_per_s = float_of_int (co.n + cm.n) /. wall in
  let p_attempted = sum (fun r -> r.c_attempted) plain
  and p_failed = sum (fun r -> r.c_failed) plain + List.length problems in
  let layers, accounting, attempted, failed, problems =
    match traced_phase with
    | None -> ([], None, p_attempted, p_failed, problems)
    | Some (runs, cs0, cs1, tr, more) ->
        let tr = Option.get tr in
        let checkouts = sum (fun r -> r.checkouts.len) runs
        and commits = sum (fun r -> r.commits.len) runs in
        let ops = sum (fun r -> r.c_attempted) runs in
        let hits = float_of_int (cs1.Repo.hits - cs0.Repo.hits)
        and partial = float_of_int (cs1.Repo.partial_hits - cs0.Repo.partial_hits)
        and misses = float_of_int (cs1.Repo.misses - cs0.Repo.misses) in
        let lookups = hits +. partial +. misses in
        (* Which bench operation each span serves: server.request is
           the child of client.request, itself the child of the bench
           span, across domains. *)
        let by_id = Hashtbl.create 4096 in
        List.iter (fun (s : Acc.span) -> Hashtbl.replace by_id s.id s) tr.spans;
        let rec op_of (s : Acc.span) =
          if is_bench s.name then Some s.name
          else
            match s.parent with
            | Some p -> (
                match Hashtbl.find_opt by_id p with Some ps -> op_of ps | None -> None)
            | None -> None
        in
        let handler kind =
          List.fold_left
            (fun (count, dur) (s : Acc.span) ->
              if s.name = "server.request" && op_of s = Some kind then (count + 1, dur +. s.dur)
              else (count, dur))
            (0, 0.0) tr.spans
        in
        let co_n, co_dur = handler "bench.checkout" and cm_n, cm_dur = handler "bench.commit" in
        let co_gets =
          List.length
            (List.filter
               (fun (s : Acc.span) -> s.name = "backend.get" && op_of s = Some "bench.checkout")
               tr.spans)
        in
        let n_requests, client_dur = span_stats tr "client.request" in
        let server_dur = snd (span_stats tr "server.request") in
        let common = common_layers tr ~ops in
        let store_get_ms = List.assoc "store.get_ms" common in
        let objects = div (float_of_int co_gets) (float_of_int checkouts) in
        let gets_share = div (float_of_int co_gets) (float_of_int io.gets) in
        let verify = verify_time tr in
        let acc =
          account tr
            ~total:(List.fold_left (fun acc r -> acc +. r.c_busy) 0.0 runs)
            ~layer_of:(function
              | "client.request" -> Some "server.wait"
              | "server.request" -> Some "server.handler"
              | ("backend.get" | "backend.put") as l -> Some l
              | _ -> None)
            ~extra:[ ("store.verify", verify); ("server.handler", -.verify) ]
            ()
        in
        let checkout_handler_ms = 1000.0 *. div co_dur (float_of_int co_n) in
        let traced_co = summarize (concat_samples (List.map (fun r -> r.checkouts) runs)) in
        ( [
              ("server.checkout_handler_ms", checkout_handler_ms);
              ("server.commit_handler_ms", 1000.0 *. div cm_dur (float_of_int cm_n));
              ( "server.wait_ms",
                1000.0 *. div (client_dur -. server_dur) (float_of_int n_requests) );
              ("repo.cache_hit_ratio", div hits lookups);
              ("repo.cache_partial_ratio", div partial lookups);
              ("repo.objects_per_checkout", objects);
              ( "repo.bytes_per_checkout",
                gets_share *. div (diff tr "dsvc_store_get_bytes_total") (float_of_int checkouts)
              );
              ("delta.replay_ms", checkout_handler_ms -. (objects *. store_get_ms));
              ( "backend.bytes_written_per_user_byte",
                div io.put_bytes (List.fold_left (fun acc r -> acc +. r.user_bytes) 0.0 runs) );
              ("backend.puts", div (float_of_int io.puts) (float_of_int commits));
              ("obs.overhead_ratio", overhead ~plain:co ~traced_p50:traced_co.p50);
            ]
          @ common,
          Some acc,
          p_attempted + ops,
          p_failed + sum (fun r -> r.c_failed) runs + List.length more,
          problems @ more )
  in
  Repo.close repo;
  let storage = float_of_int served.Repo.storage_bytes /. v.logical
  and recreation = served.Repo.sum_recreation_bytes /. v.logical in
  {
    attempted;
    failed;
    problems;
    end_to_end = e2e ~setup_s ~op:co ~storage ~recreation;
    named =
      common_rows ~setup_s ~attempted:p_attempted ~failed:p_failed
      @ latency_rows "checkout" ~unit_scale:1000.0 ~unit_:"ms" co
      @ latency_rows "commit" ~unit_scale:1000.0 ~unit_:"ms" cm
      @ [
          ( ("ops_per_s", ops_per_s, "1/s"),
            Printf.sprintf "checkouts + commits, closed loop of %d clients" serve_clients );
          (("storage_per_byte", storage, "ratio"), "served plan, Budgeted_sum 1.5");
          (("recreation_per_byte", recreation, "ratio"), "served plan, Budgeted_sum 1.5");
        ];
    layers;
    accounting;
  }

(* ---- optimize_repo ---- *)

let strategies = [| Repo.Budgeted_sum 1.5; Repo.Min_storage; Repo.Bounded_max 2.0 |]

let optimize_repo ctx =
  let v = gen_versions ~seed:ctx.seed ~dense:true ~n:optimize_versions in
  let repo, setup_s = repo_setup ctx v () in
  let lmg_stats = ref None and problems = ref [] in
  let verify () =
    match Repo.verify repo with
    | Ok () -> true
    | Error ps ->
        problems := !problems @ ps;
        false
  in
  (* One operation is a cycle through the three strategies, so every
     sample does the same mix of work; a cycle ends with a full
     integrity check, outside the timer. *)
  let cycle = Array.length strategies in
  let run () =
    closed_loop ~settle:true ~seconds:ctx.seconds ~name:"bench.optimize"
      (fun _ -> Array.map (fun s -> Repo.optimize repo ~jobs s) strategies)
      (fun _ results ->
        (match results.(0) with
        | Ok st when !lmg_stats = None -> lmg_stats := Some st
        | _ -> ());
        let errors =
          List.filter_map (function Error e -> Some e | Ok _ -> None) (Array.to_list results)
        in
        problems := !problems @ errors;
        errors = [] && verify ())
  in
  let plain, traced_phase = phases ctx run in
  let per_optimize (s : summary) =
    let k = float_of_int cycle in
    { s with p50 = s.p50 /. k; tail = s.tail /. k }
  in
  let op = per_optimize (summarize ~tail:false plain.lat) in
  let layers, accounting, attempted, failed =
    match traced_phase with
    | None -> ([], None, plain.attempted, plain.failed)
    | Some (ph, tr) ->
        let tr = Option.get tr in
        let acc =
          account tr ~total:ph.busy
            ~layer_of:(fun name ->
              match name with
              | "pool.parallel_init" -> Some "pool"
              | "backend.get" | "backend.put" -> Some name
              | _ when String.starts_with ~prefix:"optimize." name -> Some name
              | _ when String.starts_with ~prefix:"solve." name -> Some name
              | _ -> None)
            ()
        in
        let optimizes = cycle * ph.attempted in
        ( [
            ( "backend.bytes_written_per_user_byte",
              div io.put_bytes (v.logical *. float_of_int optimizes) );
            ( "obs.overhead_ratio",
              overhead ~plain:op ~traced_p50:(per_optimize (summarize ph.lat)).p50 );
          ]
          @ common_layers tr ~ops:optimizes,
          Some acc,
          plain.attempted + ph.attempted,
          plain.failed + ph.failed )
  in
  Repo.close repo;
  let st = match !lmg_stats with Some st -> st | None -> failwith "no optimize completed" in
  let storage = float_of_int st.Repo.storage_bytes /. v.logical
  and recreation = st.Repo.sum_recreation_bytes /. v.logical in
  let ops_per_s = float_of_int (cycle * op.n) /. plain.busy in
  {
    attempted;
    failed;
    problems = !problems;
    end_to_end = e2e ~setup_s ~op ~storage ~recreation;
    named =
      common_rows ~setup_s ~attempted:plain.attempted ~failed:plain.failed
      @ latency_rows "optimize" ~unit_scale:1.0 ~unit_:"s" op
      @ [ (("ops_per_s", ops_per_s, "1/s"), Printf.sprintf "optimizes, %d per cycle" cycle) ]
      @ [
          (("storage_per_byte", storage, "ratio"), "after the Budgeted_sum 1.5 step");
          (("recreation_per_byte", recreation, "ratio"), "after the Budgeted_sum 1.5 step");
        ];
    layers;
    accounting;
  }

(* ---- plan_sweep ---- *)

type plan = { label : string; alpha : float option; sg : Storage_graph.t }

let lmg_factors = [ 1.1; 1.5; 3.0 ]
let mp_factors = [ 1.25; 2.0 ]
let last_alphas = [ 1.5; 3.0 ]

(* The paper's tradeoff sweep: both extremes, then each heuristic at
   its settings. *)
let sweep g =
  let ( let* ) = Result.bind in
  let* mca = Mca.solve g in
  let* spt = Spt.solve g in
  let cmin = Storage_graph.storage_cost mca in
  let lmg =
    List.map
      (fun f ->
        {
          label = Printf.sprintf "LMG %.1fx" f;
          alpha = None;
          sg = Lmg.solve g ~base:mca ~spt ~budget:(f *. cmin) ();
        })
      lmg_factors
  in
  let maxd = Storage_graph.max_recreation spt in
  let* mp =
    List.fold_right
      (fun f acc ->
        let* acc = acc in
        match Mp.solve g ~theta:(f *. maxd) with
        | { Mp.tree = Some sg; _ } ->
            Ok ({ label = Printf.sprintf "MP %.2fx" f; alpha = None; sg } :: acc)
        | { Mp.tree = None; _ } -> Error (Printf.sprintf "MP %.2fx infeasible" f))
      mp_factors (Ok [])
  in
  let last =
    List.map
      (fun a ->
        { label = Printf.sprintf "LAST a=%.1f" a; alpha = Some a; sg = Last.solve g ~base:mca ~alpha:a })
      last_alphas
  in
  let* gith = Gith.solve g ~window:10 ~max_depth:50 in
  Ok
    ([ { label = "MCA"; alpha = None; sg = mca }; { label = "SPT"; alpha = None; sg = spt } ]
    @ lmg @ mp @ last
    @ [ { label = "GitH w=10 d=50"; alpha = None; sg = gith } ])

(* Every plan is a valid solution, and every LAST plan meets its
   Ri <= alpha * SP(V0, Vi) bound. *)
let check_plan g dist p =
  let valid =
    match Solution_check.check g p.sg with
    | Ok _ -> []
    | Error ps -> List.map (fun e -> p.label ^ ": " ^ e) ps
  in
  let bound =
    match p.alpha with
    | None -> []
    | Some a ->
        let r = Storage_graph.recreation_costs p.sg in
        List.filter_map
          (fun v ->
            if r.(v) > (a *. dist.(v) *. (1.0 +. 1e-9)) +. 1e-6 then
              Some (Printf.sprintf "%s: version %d recreation %.1f > %.1f x %.1f" p.label v r.(v) a dist.(v))
            else None)
          (List.init (Aux_graph.n_versions g) (fun i -> i + 1))
  in
  valid @ bound

let plan_sweep ctx =
  let params = { Cost_gen.default_params with max_hops = 5; reveal_cap = 12 } in
  (* Independent instances, each with a fixed shape and seeded costs,
     as for the repositories. An operation sweeps all of them, so one
     instance's long LMG run does not set the whole run's figure. *)
  let generate i =
    let h =
      History_gen.generate
        (History_gen.flat_params ~n_commits:sweep_versions)
        (Prng.create ~seed:(history_seed + i))
    in
    Cost_gen.generate ~jobs h params (Prng.create ~seed:((ctx.seed * 1000) + i))
  in
  (* generation is cheap: more set-ups steady its median *)
  let graphs, setup_s =
    repeated_setup ~reps:(2 * setup_reps) (fun _ -> Array.init sweep_graphs generate) ignore
  in
  let dists = Array.map Spt.distances graphs in
  (* The first sweep's plans are checked in full; a later sweep must
     return the same plans (the solvers are deterministic), and any
     plan that differs is checked in full too. *)
  let reference = ref None and problems = ref [] and check_s = ref 0.0 in
  let check all =
    let t0 = now () in
    let bad =
      List.concat
        (List.init sweep_graphs (fun i ->
             let g = graphs.(i) and dist = dists.(i) in
             match !reference with
             | None -> List.concat_map (check_plan g dist) all.(i)
             | Some first ->
                 List.concat
                   (List.map2
                      (fun a b ->
                        if Storage_graph.to_parents a.sg = Storage_graph.to_parents b.sg
                        then []
                        else check_plan g dist b)
                      first.(i) all.(i))))
    in
    if !reference = None then reference := Some all;
    check_s := !check_s +. (now () -. t0);
    problems := !problems @ bad;
    bad = []
  in
  let run () =
    check_s := 0.0;
    closed_loop ~settle:true ~seconds:ctx.seconds ~name:"bench.sweep"
      (fun _ -> Array.map sweep graphs)
      (fun _ results ->
        match Array.find_map (function Error e -> Some e | Ok _ -> None) results with
        | Some e ->
            problems := !problems @ [ e ];
            false
        | None -> check (Array.map Result.get_ok results))
  in
  let plain, traced_phase = phases ctx run in
  let op = summarize ~tail:false plain.lat in
  let layers, accounting, attempted, failed =
    match traced_phase with
    | None -> ([], None, plain.attempted, plain.failed)
    | Some (ph, tr) ->
        let tr = Option.get tr in
        let acc =
          account tr ~total:ph.busy
            ~layer_of:(fun name ->
              if name = "pool.parallel_init" then Some "pool"
              else if String.starts_with ~prefix:"solve." name then Some name
              else None)
            ()
        in
        ( [
            ("solve.check_s", !check_s /. float_of_int (max 1 ph.attempted));
            ("obs.overhead_ratio", overhead ~plain:op ~traced_p50:(summarize ph.lat).p50);
          ]
          @ common_layers tr ~ops:ph.attempted,
          Some acc,
          plain.attempted + ph.attempted,
          plain.failed + ph.failed )
  in
  let all = match !reference with Some p -> Array.to_list p | None -> failwith "no sweep completed" in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  (* each ratio: mean over the settings, then over the instances *)
  let over_instances ratio =
    mean
      (List.map
         (fun plans ->
           let find label = (List.find (fun p -> p.label = label) plans).sg in
           ratio find)
         all)
  in
  let lmg_sumr_over_spt =
    over_instances (fun find ->
        let spt_sum = Storage_graph.sum_recreation (find "SPT") in
        mean
          (List.map
             (fun f ->
               Storage_graph.sum_recreation (find (Printf.sprintf "LMG %.1fx" f)) /. spt_sum)
             lmg_factors))
  and mp_storage_over_mca =
    over_instances (fun find ->
        let mca_storage = Storage_graph.storage_cost (find "MCA") in
        mean
          (List.map
             (fun f ->
               Storage_graph.storage_cost (find (Printf.sprintf "MP %.2fx" f)) /. mca_storage)
             mp_factors))
  in
  let ops_per_s = float_of_int op.n /. plain.busy in
  {
    attempted;
    failed;
    problems = !problems;
    end_to_end =
      e2e ~setup_s ~op ~storage:mp_storage_over_mca ~recreation:lmg_sumr_over_spt;
    named =
      common_rows ~setup_s ~attempted:plain.attempted ~failed:plain.failed
      @ [
          ( ("sweep_s", op.p50, "s"),
            Printf.sprintf "median of n=%d sweeps, each over %d graphs of %d versions" op.n
              sweep_graphs sweep_versions );
          (("ops_per_s", ops_per_s, "1/s"), "sweeps");
          (("lmg_sumr_over_spt", lmg_sumr_over_spt, "ratio"), "mean over LMG 1.1/1.5/3.0x");
          (("mp_storage_over_mca", mp_storage_over_mca, "ratio"), "mean over MP 1.25/2.0x");
        ];
    layers;
    accounting;
  }

(* ---- command line ---- *)

let workloads =
  [
    ("serve_mixed", serve_mixed);
    ("checkout_cold", checkout_cold);
    ("optimize_repo", optimize_repo);
    ("plan_sweep", plan_sweep);
  ]

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float value) unit_)
          metrics))

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n\
     development seed %d, held-out seed %d\n"
    (String.concat "|" (List.map fst workloads))
    dev_seed heldout_seed;
  exit 2

let parse_args () =
  let workload = ref None and seed = ref dev_seed and seconds = ref 10.0 and trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when List.mem_assoc w workloads -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

(* The per-layer values, with the accounting's own rows added. *)
let layer_values r =
  let total, unattributed =
    match r.accounting with
    | Some a -> (a.Acc.total, a.Acc.unattributed)
    | None -> (0.0, 0.0)
  in
  let values =
    r.layers
    @ [
        ("traced_total_s", total);
        ("unattributed_s", unattributed);
        ("unattributed_share", div unattributed total);
      ]
  in
  List.map
    (fun (metric, unit_) ->
      (metric, Option.value (List.assoc_opt metric values) ~default:0.0, unit_))
    per_layer_units

let print_report name ctx r =
  Printf.printf "perfbench %s seed=%d (development %d, held-out %d) trace=%d\n" name ctx.seed
    dev_seed heldout_seed (if ctx.trace then 1 else 0);
  Printf.printf "git_rev=%s ocaml=%s ncores=%d jobs=%d default_jobs=%d seconds=%g\n"
    (Build_info.git_rev ()) Build_info.ocaml_version (Pool.recommended_jobs ()) jobs
    (Pool.default_jobs ()) ctx.seconds;
  Printf.printf
    "speed factor: median %.4f, min %.4f, max %.4f over %d samples (reference %.2f ms nominal)\n"
    (median speed.factors)
    (List.fold_left Float.min infinity speed.factors)
    (List.fold_left Float.max 0.0 speed.factors)
    (List.length speed.factors) (1000.0 *. ref_nominal_s);
  Printf.printf "\nend-to-end (untraced, timings at nominal speed):\n";
  List.iter
    (fun ((metric, value, unit_), note) ->
      Printf.printf "  %-26s %14.6g %-6s %s\n" metric value unit_ note)
    r.named;
  (match r.accounting with
  | None -> ()
  | Some acc ->
      Printf.printf "\nper-layer (traced):\n";
      List.iter
        (fun (metric, value, unit_) -> Printf.printf "  %-36s %14.6g %s\n" metric value unit_)
        (layer_values r);
      Printf.printf "\naccounting: traced total %.6f s, tolerance %.0f%%, %d spans\n"
        acc.Acc.total (100.0 *. Acc.default_eps) !spans_recorded;
      List.iter
        (fun (layer, share) -> Printf.printf "  %-24s %8.2f%%\n" layer (100.0 *. share))
        (Acc.shares acc));
  List.iter (fun p -> Printf.printf "problem: %s\n" p) r.problems

let () =
  let name, seed, seconds, trace = parse_args () in
  let base = Filename.concat (Sys.getcwd ()) ".perfbench_tmp" in
  let tmp = Filename.concat base (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir base 0o755 with Sys_error _ -> ());
  Sys.mkdir tmp 0o755;
  (* Nothing the program writes on its own may land outside tmp. *)
  Unix.putenv "DSVC_FLIGHT_PATH" (Filename.concat tmp "dsvc-flight.json");
  let ctx = { seed; seconds; trace; tmp } in
  let r =
    Fun.protect
      ~finally:(fun () ->
        rm_rf tmp;
        try Sys.rmdir base with Sys_error _ -> ())
      (fun () -> (List.assoc name workloads) ctx)
  in
  let r =
    match r.accounting with
    | None -> r
    | Some acc -> (
        match Acc.check acc with
        | Ok () -> r
        | Error ps ->
            { r with failed = r.failed + 1; problems = r.problems @ List.map (( ^ ) "accounting: ") ps })
  in
  print_report name ctx r;
  let metrics = if trace then layer_values r else r.end_to_end in
  let correct = r.failed = 0 && r.problems = [] in
  print_endline (json_result ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  exit (if correct then 0 else 1)
