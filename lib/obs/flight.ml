(* Always-on flight recorder: a small bounded ring of recent spans and
   log records, kept regardless of the DSVC_OBS gate so a crash or
   SIGTERM can be explained after the fact even when full tracing was
   off.

   Cost discipline: spans only land here when their operation's
   context was head-sampled (Context.decide, 1 in 8), so the
   steady-state overhead is one DLS read per span. Log records are
   rare and always kept. The ring is memory-only; like Trace, this
   module never opens files — dumping [to_json] through Fsutil is the
   caller's job (bin/dsvc.ml on crash, Server.serve on SIGTERM, `dsvc
   flight-dump` on demand). *)

type kind = Span | Log

type event = {
  ev_ts : float;  (* seconds since epoch *)
  ev_kind : kind;
  ev_name : string;  (* span name, or log source *)
  ev_detail : string;  (* "" for spans; the message for logs *)
  ev_dur : float;  (* seconds; 0 for logs *)
  ev_level : string;  (* "span" for spans; the log level otherwise *)
  ev_trace : string;  (* "" when no ambient context *)
  ev_request : string;
}

let capacity = 512

let mutex = Mutex.create ()

(* every access takes [mutex] above *)
let ring : event Bounded_ring.t = Bounded_ring.create capacity

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let record ev = with_lock (fun () -> Bounded_ring.push ring ev)

let ambient_ids () =
  match Context.current () with
  | Some c -> (c.Context.trace_id, c.Context.request_id)
  | None -> ("", "")

let record_span ~name ~start ~dur =
  let trace, request = ambient_ids () in
  record
    {
      ev_ts = start;
      ev_kind = Span;
      ev_name = name;
      ev_detail = "";
      ev_dur = dur;
      ev_level = "span";
      ev_trace = trace;
      ev_request = request;
    }

let record_log ~level ~src message =
  let trace, request = ambient_ids () in
  record
    {
      ev_ts = Unix.gettimeofday ();
      ev_kind = Log;
      ev_name = src;
      ev_detail = message;
      ev_dur = 0.0;
      ev_level = level;
      ev_trace = trace;
      ev_request = request;
    }

let events () = with_lock (fun () -> Bounded_ring.to_list ring)
let event_count () = with_lock (fun () -> Bounded_ring.pushed ring)
let reset () = with_lock (fun () -> Bounded_ring.clear ring)

let default_path () =
  match Sys.getenv_opt "DSVC_FLIGHT_PATH" with
  | Some p when String.trim p <> "" -> String.trim p
  | _ -> "dsvc-flight.json"

let to_json () =
  let evs = events () in
  let b = Buffer.create 4096 in
  Buffer.add_string b {|{"flight":[|};
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"ts":%.6f,"kind":"%s","name":"%s","detail":"%s","dur_s":%.6f,"level":"%s","trace":"%s","request":"%s"}|}
           e.ev_ts
           (match e.ev_kind with Span -> "span" | Log -> "log")
           (Metrics.json_escape e.ev_name)
           (Metrics.json_escape e.ev_detail)
           e.ev_dur
           (Metrics.json_escape e.ev_level)
           (Metrics.json_escape e.ev_trace)
           (Metrics.json_escape e.ev_request)))
    evs;
  Buffer.add_string b "]}";
  Buffer.contents b
