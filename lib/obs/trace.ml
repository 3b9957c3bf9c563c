(* Scoped spans with a bounded in-memory ring of completed spans.

   Span nesting is tracked with a per-domain stack (Domain.DLS);
   [Pool] captures the caller's current span id before spawning and
   re-seeds the worker domains with [with_parent], so spans opened
   inside parallel regions still attach to the optimize phase that
   spawned them. Every span is stamped with the ambient [Context]
   trace id, which is how client and server spans of one request end
   up in one trace.

   The ring keeps the most recent [capacity ()] completed spans (8192
   unless [set_capacity] resized it); [to_chrome_json] renders them in
   Chrome trace_event format. The caller is responsible for writing
   the file (through Fsutil — this library never opens files).

   Independent of the Obs gate, a completed span is copied into the
   [Flight] ring when the ambient context was head-sampled: that path
   reads the clock even with DSVC_OBS off, but only for the sampled
   1-in-N operations, and it never feeds a decision (DESIGN.md §11). *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float; (* seconds since epoch *)
  dur : float; (* seconds *)
  domain : int;
  alloc : float; (* bytes allocated by this domain during the span *)
  trace : string option; (* ambient Context trace id, if any *)
}

(* ---- ring capacity ---- *)

let default_capacity = 8192
let min_capacity = 16
let max_capacity = 1 lsl 20

let mutex = Mutex.create ()

(* lint: mutable-ok the completed-span ring, replaced by
   [set_capacity]; every access takes [mutex] above, and nothing ever
   reads it to make a decision *)
let ring = ref (Bounded_ring.create default_capacity)

let next_id = Atomic.make 1

let stack_key : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity () = with_lock (fun () -> Bounded_ring.capacity !ring)

let set_capacity n =
  if n < min_capacity || n > max_capacity then
    invalid_arg
      (Printf.sprintf "Trace.set_capacity: %d outside [%d, %d]" n min_capacity
         max_capacity);
  with_lock (fun () -> ring := Bounded_ring.create n)

let record s = with_lock (fun () -> Bounded_ring.push !ring s)

let current_id () =
  if not (Obs.enabled ()) then None
  else
    match !(Domain.DLS.get stack_key) with [] -> None | id :: _ -> Some id

(* Flight-only span: the Obs gate is off but the ambient context was
   head-sampled. Time the call and drop it into the flight ring; no
   ids, no stack, no span ring. *)
let with_span_flight name f =
  let t0 = Unix.gettimeofday () in
  let finish () =
    Flight.record_span ~name ~start:t0 ~dur:(Unix.gettimeofday () -. t0)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt

let with_span ?parent name f =
  if not (Obs.enabled ()) then
    if Context.sampled_now () then with_span_flight name f else f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent =
      match parent with
      | Some _ as p -> p
      | None -> ( match !stack with [] -> None | id :: _ -> Some id)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let a0 = Gc.allocated_bytes () in
    let finish () =
      let dur = Unix.gettimeofday () -. t0 in
      let alloc = Gc.allocated_bytes () -. a0 in
      (match !stack with
      | top :: rest when top = id -> stack := rest
      | _ -> () (* unbalanced pop: a nested span escaped; drop silently *));
      record
        {
          id;
          parent;
          name;
          start = t0;
          dur;
          domain = (Domain.self () :> int);
          alloc;
          trace = Context.current_trace_id ();
        };
      if Context.sampled_now () then
        Flight.record_span ~name ~start:t0 ~dur
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

(* Seed a fresh domain's span stack so spans it opens nest under the
   caller's span. Restores the previous stack on exit (the calling
   domain doubles as pool worker). *)
let with_parent parent f =
  if not (Obs.enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let saved = !stack in
    stack := (match parent with None -> [] | Some id -> [ id ]);
    Fun.protect ~finally:(fun () -> stack := saved) f
  end

let spans () = with_lock (fun () -> Bounded_ring.to_list !ring)
let span_count () = with_lock (fun () -> Bounded_ring.pushed !ring)
let reset () = with_lock (fun () -> Bounded_ring.clear !ring)

(* ---- Chrome trace_event ---- *)

let chrome_json_of_spans ss =
  let b = Buffer.create 4096 in
  Buffer.add_string b {|{"displayTimeUnit":"ms","traceEvents":[|};
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           {|{"name":"%s","cat":"dsvc","ph":"X","ts":%.1f,"dur":%.1f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%s,"trace":%s,"alloc_bytes":%.0f}}|}
           (Metrics.json_escape s.name)
           (s.start *. 1e6) (s.dur *. 1e6) s.domain s.id
           (match s.parent with None -> "null" | Some p -> string_of_int p)
           (match s.trace with
           | None -> "null"
           | Some t -> "\"" ^ Metrics.json_escape t ^ "\"")
           s.alloc))
    ss;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_chrome_json () = chrome_json_of_spans (spans ())

(* ---- aggregation for `dsvc optimize --profile` ---- *)

type agg = {
  agg_name : string;
  count : int;
  total_s : float;
  total_alloc : float;
}

let summarize_spans ss =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev =
        Option.value
          (Hashtbl.find_opt tbl s.name)
          ~default:{ agg_name = s.name; count = 0; total_s = 0.; total_alloc = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          prev with
          count = prev.count + 1;
          total_s = prev.total_s +. s.dur;
          total_alloc = prev.total_alloc +. s.alloc;
        })
    ss;
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> compare (b.total_s, a.agg_name) (a.total_s, b.agg_name))

let summarize () = summarize_spans (spans ())
