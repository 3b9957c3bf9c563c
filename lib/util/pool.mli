(** Fork-join parallelism over OCaml domains.

    Each parallel call splits its index range into contiguous chunks
    and runs them on a bounded pool of worker domains ([jobs] workers:
    the calling domain plus [jobs - 1] spawned ones), pulling chunks
    from a shared atomic counter for load balance. Results land in
    per-chunk slots, so output order is deterministic and identical to
    the sequential evaluation regardless of scheduling.

    [jobs = 1] (the default without a [DSVC_JOBS] override) bypasses
    domains entirely — the call is exactly [Array.init] on the calling
    domain — so existing single-threaded call sites and the
    fault-injection tests are unaffected. Calls with fewer than 32
    indices also run sequentially: below that, spawn/join overhead
    dominates any win, and callers in tight loops (brute-force
    enumerations, property tests) must not pay a domain spawn per
    call.

    The user function must be safe to run on any domain for indices in
    its chunk (no unsynchronized shared mutation); per-domain scratch
    state belongs in [Domain.DLS]. If any invocation raises, the pool
    stops handing out further chunks, joins its workers, and re-raises
    one of the captured exceptions with its original backtrace. *)

val default_jobs : unit -> int
(** The [DSVC_JOBS] environment variable, capped at 128, or [1] when
    unset or blank. Read once at first use, through
    {!Versioning_obs.Obs.env_int}: a non-integer or a value below 1
    prints one line on stderr and yields [1]. This is the default for
    every [?jobs] knob in the library, so a test run under
    [DSVC_JOBS=2] exercises every parallel path. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available, for benchmarks that want "all cores". *)

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~jobs n f] is observably [Array.init n f]: element
    [i] is [f i], evaluated at most once, with chunks of the index
    range distributed over [min jobs n] domains.
    @raise Invalid_argument on [n < 0]. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f a] is observably [Array.map f a]. *)
