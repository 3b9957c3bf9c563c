module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Context = Versioning_obs.Context

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

(* Garbage or a value below 1 complains on stderr and yields 1; large
   values are clamped rather than rejected. *)
let default_jobs =
  let cached = lazy (Int.min 128 (Obs.env_int "DSVC_JOBS" ~default:1)) in
  fun () -> Lazy.force cached

let recommended_jobs () = Domain.recommended_domain_count ()

(* Chunks are finer than one-per-worker so an unlucky expensive run
   of indices does not serialize the whole call behind one domain. *)
let chunks_per_worker = 8

(* Below this many indices the spawn/join cost dominates any win, and
   callers in tight loops (brute-force enumerations, property tests)
   would otherwise pay one domain spawn per call. *)
let min_parallel = 32

let parallel_init ?(jobs = default_jobs ()) n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if jobs <= 1 || n < min_parallel then begin
    Metrics.counter "dsvc_pool_sequential_calls_total"
      ~help:"parallel_init calls taking the sequential path";
    Array.init n f
  end
  else
    Trace.with_span "pool.parallel_init" @@ fun () ->
    let workers = clamp 1 n jobs in
    let chunk_size =
      max 1 ((n + (workers * chunks_per_worker) - 1) / (workers * chunks_per_worker))
    in
    let nchunks = (n + chunk_size - 1) / chunk_size in
    if Obs.enabled () then begin
      Metrics.counter "dsvc_pool_parallel_calls_total"
        ~help:"parallel_init calls taking the parallel path";
      Metrics.counter "dsvc_pool_tasks_total" ~by:(float_of_int n)
        ~help:"Items processed by parallel pool calls";
      Metrics.counter "dsvc_pool_chunks_total" ~by:(float_of_int nchunks)
        ~help:"Chunks queued by parallel pool calls";
      Metrics.counter "dsvc_pool_domains_spawned_total"
        ~by:(float_of_int (workers - 1))
        ~help:"Worker domains spawned by the pool";
      Metrics.gauge "dsvc_pool_jobs" (float_of_int workers)
        ~help:"Worker count of the most recent parallel pool call"
    end;
    (* one slot per chunk: each is written by exactly one domain, and
       the joins order those writes before the final concatenation *)
    let slots = Array.make nchunks [||] in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    (* [busy] is None when observability is off: the loop then never
       touches a clock, keeping the off-mode path identical to the
       uninstrumented pool. *)
    let rec worker busy =
      if Atomic.get failure = None then begin
        let c = Atomic.fetch_and_add next 1 in
        if c < nchunks then begin
          let lo = c * chunk_size in
          let hi = min n (lo + chunk_size) in
          let t0 = match busy with Some _ -> Unix.gettimeofday () | None -> 0.0 in
          (match Array.init (hi - lo) (fun i -> f (lo + i)) with
          | chunk -> slots.(c) <- chunk
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set failure None (Some (e, bt))));
          (match busy with
          | Some acc ->
              let dt = Unix.gettimeofday () -. t0 in
              acc := (fst !acc +. dt, snd !acc + 1)
          | None -> ());
          worker busy
        end
      end
    in
    (* Per-worker wrapper: time the whole drain so busy vs idle per
       domain is visible, and count the chunks this domain ran. *)
    let run_worker () =
      if not (Obs.enabled ()) then worker None
      else begin
        let labels =
          [ ("domain", string_of_int (Domain.self () :> int)) ]
        in
        let t0 = Unix.gettimeofday () in
        let busy = ref (0.0, 0) in
        worker (Some busy);
        let total = Unix.gettimeofday () -. t0 in
        let busy_s, nrun = !busy in
        Metrics.counter "dsvc_pool_chunks_run_total" ~labels
          ~by:(float_of_int nrun)
          ~help:"Chunks executed, by worker domain";
        Metrics.observe "dsvc_pool_worker_busy_seconds" ~labels busy_s
          ~help:"Per-call time a worker domain spent running chunks";
        Metrics.observe "dsvc_pool_worker_idle_seconds" ~labels
          (Float.max 0.0 (total -. busy_s))
          ~help:"Per-call time a worker domain spent waiting for work"
      end
    in
    (* Re-seed each spawned domain's span stack with the caller's
       current span, and its ambient trace context with the caller's,
       so parallel spans nest across domains AND stay attached to the
       request that spawned them (same trace id, same flight-sampling
       decision). *)
    let parent = Trace.current_id () in
    let ctx = Context.current () in
    let domains =
      Array.init (workers - 1) (fun _ ->
          Domain.spawn (fun () ->
              Context.with_current ctx (fun () ->
                  Trace.with_parent parent run_worker)))
    in
    (* the calling domain is the pool's first worker *)
    (match run_worker () with
    | () -> ()
    | exception e ->
        (* defensive: [worker] catches f's exceptions itself *)
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt))));
    Array.iter Domain.join domains;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.concat (Array.to_list slots)

let parallel_map ?jobs f a = parallel_init ?jobs (Array.length a) (fun i -> f a.(i))
