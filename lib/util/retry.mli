(** Bounded retry with exponential backoff and jitter.

    Used by the store's HTTP client to ride out transient connect and
    read failures, and available to any component that talks to an
    unreliable peer. The backoff schedule is pure ({!delay}) so tests
    can assert on it without sleeping; {!with_policy} accepts injected
    [sleep] and [rand] functions for the same reason. *)

type policy = {
  max_attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  max_delay : float;  (** backoff ceiling in seconds *)
  multiplier : float;  (** growth factor per retry *)
  jitter : float;
      (** fraction of the delay randomly shaved off, in [0,1]: the
          actual sleep is [delay * (1 - jitter * U[0,1))], decorrelating
          clients that fail in lockstep *)
}

val default : policy
(** 4 attempts, 50 ms base, x2 growth, 2 s cap, 0.5 jitter. *)

val delay : policy -> attempt:int -> rand:float -> float
(** [delay p ~attempt ~rand] is the sleep after the failure of
    0-indexed [attempt], with [rand] in [0,1) supplying the jitter
    draw. Pure. *)

val seeded_rand : seed:int -> unit -> float
(** A {!Prng}-backed uniform draw in [0,1) determined entirely by
    [seed] — equal seeds yield equal jitter schedules, so tests can
    reproduce an exact backoff sequence. This is also what the default
    [rand] uses, seeded from the pid and clock (decorrelating the
    thundering herd of clients failing over to a surviving peer
    together). *)

val with_policy :
  ?policy:policy ->
  ?sleep:(float -> unit) ->
  ?rand:(unit -> float) ->
  ?on_retry:(attempt:int -> delay:float -> unit) ->
  retryable:('e -> bool) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result
(** Run [f ~attempt:0], retrying while it returns a [retryable] error
    and attempts remain. Returns the first success or the last error.
    [sleep] defaults to [Unix.sleepf]; [rand] defaults to a
    {!Prng}-backed uniform draw seeded from the pid and clock.
    [on_retry] fires exactly once per backoff, before the sleep, with
    the 0-indexed attempt that just failed and the chosen delay; the
    default logs a warning and bumps the [dsvc_client_retries_total]
    counter. *)
