(** Global on/off gate for the observability layer.

    Enabled by [DSVC_OBS=on|1|true|yes] (or implicitly by setting
    [DSVC_TRACE]); default off. When off, every metric update and span
    in the tree is a no-op — no clock or allocation reads happen — so
    instrumented code behaves byte-identically to uninstrumented
    code. Instrumentation must only ever read state, never feed
    decisions. *)

val enabled : unit -> bool
(** Current gate state. Checked by every {!Metrics} and {!Trace}
    entry point before doing any work. *)

val set_enabled : bool -> unit
val enable : unit -> unit
val disable : unit -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the gate forced to [b], restoring
    the previous state afterwards (used by tests and [--profile]). *)

val trace_path : unit -> string option
(** The [DSVC_TRACE] destination, if set to a non-empty path. The
    library never writes the file itself — callers dump
    {!Trace.to_chrome_json} through [Fsutil]. *)

val forced_off : unit -> bool
(** True when the environment {e explicitly} vetoes observability
    ([DSVC_OBS] set to a falsy value). Read fresh on every call —
    [Server.serve] force-enables the gate so scrapes have data, and
    this is how [DSVC_OBS=0 dsvc serve] still keeps the background
    metrics sampler (and the [.dsvc/timeseries] ledger it feeds)
    disarmed. *)

val env_int : ?min:int -> ?max:int -> default:int -> string -> int
(** [env_int name ~default] reads an integer knob from the
    environment. Unset or blank yields [default]; a non-integer or a
    value outside [[min] .. [max]] (default [min] 1, so zero and
    negatives are rejected; no upper bound unless given) prints a
    clear one-line complaint to stderr and yields [default]. The one
    shared parser behind [DSVC_FLIGHT_SAMPLE], [DSVC_TRACE_RING] and
    [DSVC_MAX_CONNS]. *)

val env_float : ?min:float -> ?max:float -> default:float -> string -> float
(** [env_float name ~default] — the float/duration sibling of
    {!env_int}, same validation contract ([min] defaults to [1e-6] so
    zero, negatives and NaN are rejected). Behind [DSVC_TS_STEP],
    [DSVC_IDLE_TIMEOUT] and the alert-rule windows. *)
