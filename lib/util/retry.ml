type policy = {
  max_attempts : int;
  base_delay : float;
  max_delay : float;
  multiplier : float;
  jitter : float;
}

let default =
  {
    max_attempts = 4;
    base_delay = 0.05;
    max_delay = 2.0;
    multiplier = 2.0;
    jitter = 0.5;
  }

let delay p ~attempt ~rand =
  let raw = p.base_delay *. (p.multiplier ** float_of_int (max 0 attempt)) in
  let capped = Float.min p.max_delay raw in
  let jitter = Float.max 0.0 (Float.min 1.0 p.jitter) in
  Float.max 0.0 (capped *. (1.0 -. (jitter *. rand)))

let seeded_rand ~seed =
  let state = Prng.create ~seed in
  fun () -> Prng.float state 1.0

(* Jitter exists to decorrelate clients that fail in lockstep (a node
   death makes every client retry against the survivors at once), so
   by default each process draws from its own pid/clock-seeded stream.
   A caller that needs a reproducible schedule passes [seeded_rand]. *)
let default_rand () =
  let clock = int_of_float (Unix.gettimeofday () *. 1_000_000.0) in
  seeded_rand ~seed:(Unix.getpid () lxor clock)

let log_src = Logs.Src.create "dsvc.retry" ~doc:"Retry backoff"

module Log = (val Logs.src_log log_src : Logs.LOG)

let default_on_retry ~attempt ~delay =
  Versioning_obs.Metrics.counter "dsvc_client_retries_total"
    ~help:"Backoff sleeps taken by Retry.with_policy";
  Log.warn (fun m ->
      m "retrying after attempt %d (sleeping %.3fs)" attempt delay)

let with_policy ?(policy = default) ?sleep ?rand ?on_retry ~retryable f =
  let sleep =
    match sleep with
    | Some s -> s
    | None -> fun d -> if d > 0.0 then Unix.sleepf d
  in
  let rand = match rand with Some r -> r | None -> default_rand () in
  let on_retry =
    match on_retry with Some cb -> cb | None -> default_on_retry
  in
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error e as err ->
        if attempt + 1 >= policy.max_attempts || not (retryable e) then err
        else begin
          let d = delay policy ~attempt ~rand:(rand ()) in
          on_retry ~attempt ~delay:d;
          sleep d;
          go (attempt + 1)
        end
  in
  go 0
