(* Global on/off gate for the observability layer.

   The contract (DESIGN.md §10): instrumentation reads state, it never
   feeds decisions. When the gate is off — the default — every metric
   update and span is a no-op, including the clock and allocation
   reads, so optimize plans and fault-injection traffic stay
   byte-identical to an uninstrumented build. *)

let parse_bool s =
  match String.lowercase_ascii s with
  | "1" | "on" | "true" | "yes" -> true
  | _ -> false

(* Every DSVC_* reader treats a set-but-blank variable as unset. *)
let getenv_nonblank name =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> None

let trace_path () = getenv_nonblank "DSVC_TRACE"

(* DSVC_OBS wins when set; otherwise asking for a trace file implies
   the instrumentation that produces it. *)
let env_default =
  match getenv_nonblank "DSVC_OBS" with
  | Some s -> parse_bool s
  | None -> trace_path () <> None

let state = Atomic.make env_default

let enabled () = Atomic.get state
let set_enabled b = Atomic.set state b
let enable () = set_enabled true
let disable () = set_enabled false

(* Re-read the environment on every call: [Server.serve] force-enables
   the gate for scrape data, and this is how an operator still vetoes
   the background sampler (DSVC_OBS=0 dsvc serve). *)
let forced_off () =
  match getenv_nonblank "DSVC_OBS" with
  | Some s -> not (parse_bool s)
  | None -> false

let with_enabled b f =
  let saved = Atomic.get state in
  Atomic.set state b;
  Fun.protect ~finally:(fun () -> Atomic.set state saved) f

(* Validated integer environment knobs (DSVC_JOBS, DSVC_MAX_CONNS).
   Unset or blank means the
   default; garbage, or a value outside [min..max], is rejected out
   loud — one line on stderr naming the variable, the constraint and
   the offending value — rather than silently falling back and leaving
   an operator's typo undiagnosed. *)
let env_int ?(min = 1) ?max ~default name =
  match getenv_nonblank name with
  | None -> default
  | Some raw -> (
      let reject msg =
        Printf.eprintf "dsvc: %s; using default %d\n%!" msg default;
        default
      in
      match int_of_string_opt raw with
      | None -> reject (Printf.sprintf "%s must be an integer (got %S)" name raw)
      | Some n -> (
          match max with
          | Some hi when n < min || n > hi ->
              reject
                (Printf.sprintf "%s must be between %d and %d (got %d)" name
                   min hi n)
          | _ when n < min ->
              reject
                (Printf.sprintf "%s must be at least %d (got %d)" name min n)
          | _ -> n))

(* The float/duration sibling of [env_int], same contract: unset or
   blank yields the default, anything unparsable or out of range
   complains once on stderr and yields the default. Durations
   (DSVC_TS_STEP, DSVC_IDLE_TIMEOUT) go through here so a typo'd knob
   never silently disables sampling. *)
let env_float ?(min = 1e-6) ?max ~default name =
  match getenv_nonblank name with
  | None -> default
  | Some raw -> (
      let reject msg =
        Printf.eprintf "dsvc: %s; using default %g\n%!" msg default;
        default
      in
      match float_of_string_opt raw with
      | None -> reject (Printf.sprintf "%s must be a number (got %S)" name raw)
      | Some v when Float.is_nan v ->
          reject (Printf.sprintf "%s must be a number (got %S)" name raw)
      | Some v -> (
          match max with
          | Some hi when v < min || v > hi ->
              reject
                (Printf.sprintf "%s must be between %g and %g (got %g)" name
                   min hi v)
          | _ when v < min ->
              reject
                (Printf.sprintf "%s must be at least %g (got %g)" name min v)
          | _ -> v))
