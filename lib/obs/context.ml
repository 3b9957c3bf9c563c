(* Per-operation trace context: a 128-bit trace id, a short request
   id, the parent span id (when the operation continues a span opened
   elsewhere), and the head-based sampling decision for the flight
   recorder.

   The context rides W3C-style headers across the client/server
   boundary ([traceparent] + [X-Dsvc-Request-Id]) and rides
   [Domain.DLS] inside a process, so spans and log lines opened
   anywhere under [with_context] can be tied back to the request that
   caused them.

   Id generation needs randomness and the sampling decision needs a
   counter; both live here, in lib/obs, which is deliberately outside
   the lint's R5 determinism scope (lint.toml) — solver and workload
   code never sees either. *)

type t = {
  trace_id : string;  (* 32 lowercase hex chars *)
  request_id : string;  (* 16 lowercase hex chars, or a client-sent id *)
  parent_span : int option;
  sampled : bool;
}

(* ---- id generation (splitmix64) ---- *)

let rand_mutex = Mutex.create ()

(* lint: mutable-ok splitmix64 state for trace/request id generation;
   guarded by [rand_mutex], never read by decision-making code *)
let rand_state : int64 ref = ref 0L

(* lint: mutable-ok lazily seeded flag, same mutex *)
let seeded = ref false

let next_word () =
  Mutex.lock rand_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock rand_mutex)
    (fun () ->
      if not !seeded then begin
        seeded := true;
        rand_state :=
          Int64.logxor
            (Int64.of_float (Unix.gettimeofday () *. 1e6))
            (Int64.shift_left (Int64.of_int (Unix.getpid ())) 32)
      end;
      rand_state := Int64.add !rand_state 0x9E3779B97F4A7C15L;
      let z = !rand_state in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
          0xBF58476D1CE4E5B9L
      in
      let z =
        Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
          0x94D049BB133111EBL
      in
      Int64.logxor z (Int64.shift_right_logical z 31))

let fresh_trace_id () = Printf.sprintf "%016Lx%016Lx" (next_word ()) (next_word ())
let fresh_request_id () = Printf.sprintf "%016Lx" (next_word ())

(* ---- head-based sampling for the flight recorder ---- *)

let sample_interval = 8

let sample_counter = Atomic.make 0

(* One decision per operation head: every Nth context is sampled, so
   the flight recorder has material without tracing every request. *)
let decide () = Atomic.fetch_and_add sample_counter 1 mod sample_interval = 0

let make ?sampled ?request_id () =
  let sampled = match sampled with Some b -> b | None -> decide () in
  let request_id =
    match request_id with Some r -> r | None -> fresh_request_id ()
  in
  { trace_id = fresh_trace_id (); request_id; parent_span = None; sampled }

(* ---- traceparent encoding (W3C trace-context, version 00) ---- *)

let is_hex s =
  s <> ""
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       s

let to_traceparent ?span t =
  let span =
    match span with
    | Some s -> s
    | None -> ( match t.parent_span with Some s -> s | None -> 0)
  in
  Printf.sprintf "00-%s-%016x-%s" t.trace_id (span land max_int)
    (if t.sampled then "01" else "00")

let of_traceparent s =
  match String.split_on_char '-' (String.trim (String.lowercase_ascii s)) with
  | [ "00"; trace_id; span; flags ]
    when String.length trace_id = 32
         && is_hex trace_id
         && String.length span = 16
         && is_hex span
         && String.length flags = 2
         && is_hex flags ->
      let parent_span =
        match Int64.of_string_opt ("0x" ^ span) with
        | Some 0L | None -> None
        | Some v -> Some (Int64.to_int v)
      in
      Some
        {
          trace_id;
          request_id = fresh_request_id ();
          parent_span;
          sampled = (match Int64.of_string_opt ("0x" ^ flags) with
                    | Some f -> Int64.logand f 1L = 1L
                    | None -> false);
        }
  | _ -> None

(* Client-sent request ids end up in log lines and the /trace lookup
   table: keep them to a boring alphabet and a bounded length. *)
let sanitize_id s =
  let s = String.trim s in
  let s = if String.length s > 64 then String.sub s 0 64 else s in
  if
    s <> ""
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
           | _ -> false)
         s
  then Some s
  else None

(* ---- ambient context (per-domain) ---- *)

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get key)

let with_current ctx f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell := ctx;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_context ctx f = with_current (Some ctx) f

let current_trace_id () =
  match current () with Some c -> Some c.trace_id | None -> None

let current_request_id () =
  match current () with Some c -> Some c.request_id | None -> None

let sampled_now () =
  match current () with Some c -> c.sampled | None -> false
