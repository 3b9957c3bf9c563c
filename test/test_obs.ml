(* Observability layer: exposition goldens, gate semantics, span
   nesting (including across Pool worker domains), and histogram
   accounting. Exposition tests use private registries so they are
   independent of DSVC_OBS. *)

module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Trace = Versioning_obs.Trace
module Ctx = Versioning_obs.Context
module Flight = Versioning_obs.Flight
module Bounded_ring = Versioning_obs.Bounded_ring
module Logctx = Versioning_obs.Logctx
module Pool = Versioning_util.Pool

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* One registry exercising all three kinds, label canonicalization,
   and every escaping rule. Sample values are exact binary fractions
   so the formatted output is platform-independent. *)
let golden_registry () =
  let r = Metrics.create () in
  Metrics.counter ~registry:r ~help:"Total \"requests\"\nby route"
    ~labels:[ ("route", "/a\\b"); ("status", "200") ]
    "dsvc_test_requests_total";
  (* same series, labels in the opposite order: must merge *)
  Metrics.counter ~registry:r
    ~labels:[ ("status", "200"); ("route", "/a\\b") ]
    ~by:2.0 "dsvc_test_requests_total";
  Metrics.gauge ~registry:r "dsvc_test_jobs" 4.0;
  let buckets = [| 0.125; 1.0 |] in
  Metrics.observe ~registry:r ~buckets "dsvc_test_seconds" 0.0625;
  Metrics.observe ~registry:r ~buckets "dsvc_test_seconds" 0.5;
  Metrics.observe ~registry:r ~buckets "dsvc_test_seconds" 5.0;
  r

let test_prometheus_golden () =
  let expected =
    {|# TYPE dsvc_test_jobs gauge
dsvc_test_jobs 4
# HELP dsvc_test_requests_total Total "requests"\nby route
# TYPE dsvc_test_requests_total counter
dsvc_test_requests_total{route="/a\\b",status="200"} 3
# TYPE dsvc_test_seconds histogram
dsvc_test_seconds_bucket{le="0.125"} 1
dsvc_test_seconds_bucket{le="1"} 2
dsvc_test_seconds_bucket{le="+Inf"} 3
dsvc_test_seconds_sum 5.5625
dsvc_test_seconds_count 3
|}
  in
  Alcotest.(check string) "prometheus text"
    expected
    (Metrics.to_prometheus ~registry:(golden_registry ()) ())

let test_json_golden () =
  let expected =
    {|{"metrics":[{"name":"dsvc_test_jobs","type":"gauge","help":"","samples":[{"labels":{},"value":4}]},{"name":"dsvc_test_requests_total","type":"counter","help":"Total \"requests\"\nby route","samples":[{"labels":{"route":"/a\\b","status":"200"},"value":3}]},{"name":"dsvc_test_seconds","type":"histogram","help":"","samples":[{"labels":{},"count":3,"sum":5.5625,"buckets":[{"le":"0.125","count":1},{"le":"1","count":2},{"le":"+Inf","count":3}]}]}]}|}
  in
  Alcotest.(check string) "json exposition" expected
    (Metrics.to_json ~registry:(golden_registry ()) ())

let test_series_label_order () =
  (* insertion order spt-then-mca; exposition must sort by label key *)
  let r = Metrics.create () in
  Metrics.counter ~registry:r ~labels:[ ("algo", "spt") ] "dsvc_test_runs_total";
  Metrics.counter ~registry:r ~labels:[ ("algo", "mca") ] "dsvc_test_runs_total";
  let expected =
    {|# TYPE dsvc_test_runs_total counter
dsvc_test_runs_total{algo="mca"} 1
dsvc_test_runs_total{algo="spt"} 1
|}
  in
  Alcotest.(check string) "sorted series" expected
    (Metrics.to_prometheus ~registry:r ())

let test_type_conflict_rejected () =
  let r = Metrics.create () in
  Metrics.counter ~registry:r "dsvc_test_conflict";
  Alcotest.check_raises "re-registering with another type"
    (Invalid_argument "Metrics: dsvc_test_conflict already registered as a counter")
    (fun () -> Metrics.gauge ~registry:r "dsvc_test_conflict" 1.0)

let prop_hist_sum_count =
  QCheck.Test.make ~name:"histogram sum/count/+Inf match observations"
    ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun xs ->
      let r = Metrics.create () in
      List.iter
        (fun x ->
          Metrics.observe ~registry:r
            ~buckets:[| 1.0; 10.0; 100.0 |]
            "dsvc_test_hist" x)
        xs;
      match xs with
      | [] -> Metrics.snapshot_values ~registry:r () = []
      | _ ->
          let snap = Metrics.snapshot_values ~registry:r () in
          let expect_sum = List.fold_left ( +. ) 0.0 xs in
          let n = List.length xs in
          let sum_ok =
            match List.assoc_opt "dsvc_test_hist_sum" snap with
            | Some s ->
                Float.abs (s -. expect_sum)
                <= 1e-6 *. (1.0 +. Float.abs expect_sum)
            | None -> false
          in
          let count_ok =
            List.assoc_opt "dsvc_test_hist_count" snap = Some (float_of_int n)
          in
          (* the +Inf cumulative bucket must equal the sample count *)
          let inf_ok =
            contains
              (Metrics.to_prometheus ~registry:r ())
              (Printf.sprintf "dsvc_test_hist_bucket{le=\"+Inf\"} %d" n)
          in
          sum_ok && count_ok && inf_ok)

let test_default_registry_gated () =
  Obs.with_enabled false (fun () ->
      Metrics.reset ();
      Metrics.counter "dsvc_test_gated_total";
      Alcotest.(check (list string)) "disabled drops updates" []
        (Metrics.family_names ()));
  Obs.with_enabled true (fun () ->
      Metrics.reset ();
      Metrics.counter "dsvc_test_gated_total";
      Alcotest.(check (list string)) "enabled records"
        [ "dsvc_test_gated_total" ]
        (Metrics.family_names ());
      Metrics.reset ())

let test_time_runs_either_way () =
  let r = Metrics.create () in
  let v = Metrics.time ~registry:r "dsvc_test_timed_seconds" (fun () -> 41 + 1) in
  Alcotest.(check int) "explicit registry" 42 v;
  Alcotest.(check (list string)) "recorded" [ "dsvc_test_timed_seconds" ]
    (Metrics.family_names ~registry:r ());
  Obs.with_enabled false (fun () ->
      Metrics.reset ();
      let v = Metrics.time "dsvc_test_timed_seconds" (fun () -> 7) in
      Alcotest.(check int) "gated off still runs f" 7 v;
      Alcotest.(check (list string)) "nothing recorded" []
        (Metrics.family_names ()))

let test_span_disabled_noop () =
  Obs.with_enabled false (fun () ->
      Trace.reset ();
      let v = Trace.with_span "dead" (fun () -> 3) in
      Alcotest.(check int) "value" 3 v;
      Alcotest.(check int) "no spans" 0 (Trace.span_count ());
      Alcotest.(check (option int)) "no current id" None (Trace.current_id ()))

let test_span_nesting () =
  Obs.with_enabled true @@ fun () ->
  Trace.reset ();
  let v =
    Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> 7))
  in
  Alcotest.(check int) "value" 7 v;
  let spans = Trace.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let find n = List.find (fun s -> s.Trace.name = n) spans in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check (option int)) "inner nests under outer"
    (Some outer.Trace.id) inner.Trace.parent;
  Alcotest.(check (option int)) "outer is a root" None outer.Trace.parent;
  Alcotest.(check bool) "durations are non-negative" true
    (outer.Trace.dur >= 0.0 && inner.Trace.dur >= 0.0)

let test_span_exception_recorded () =
  Obs.with_enabled true @@ fun () ->
  Trace.reset ();
  (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Trace.span_count ());
  (* the stack unwound: a new span is again a root *)
  Trace.with_span "after" (fun () -> ());
  let after = List.find (fun s -> s.Trace.name = "after") (Trace.spans ()) in
  Alcotest.(check (option int)) "stack popped" None after.Trace.parent

let test_span_across_pool () =
  Obs.with_enabled true @@ fun () ->
  Trace.reset ();
  let n = 64 in
  (* n >= min_parallel and jobs=2 force the parallel path *)
  let out =
    Trace.with_span "outer" (fun () ->
        Pool.parallel_init ~jobs:2 n (fun i ->
            Trace.with_span "task" (fun () -> i * 2)))
  in
  Alcotest.(check int) "results intact" (2 * (n - 1)) out.(n - 1);
  let spans = Trace.spans () in
  let pool_span =
    List.find (fun s -> s.Trace.name = "pool.parallel_init") spans
  in
  let outer = List.find (fun s -> s.Trace.name = "outer") spans in
  Alcotest.(check (option int)) "pool span under outer"
    (Some outer.Trace.id) pool_span.Trace.parent;
  let tasks = List.filter (fun s -> s.Trace.name = "task") spans in
  Alcotest.(check int) "every task recorded" n (List.length tasks);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check (option int)) "task nests under the pool span"
        (Some pool_span.Trace.id) s.Trace.parent)
    tasks

let test_chrome_export_and_summary () =
  Obs.with_enabled true @@ fun () ->
  Trace.reset ();
  Trace.with_span "phase" (fun () -> ());
  Trace.with_span "phase" (fun () -> ());
  let json = Trace.to_chrome_json () in
  Alcotest.(check bool) "trace_event envelope" true
    (contains json {|"displayTimeUnit":"ms","traceEvents":[|});
  Alcotest.(check bool) "complete events" true (contains json {|"ph":"X"|});
  match Trace.summarize () with
  | [ a ] ->
      Alcotest.(check string) "aggregated by name" "phase" a.Trace.agg_name;
      Alcotest.(check int) "both occurrences" 2 a.Trace.count
  | aggs -> Alcotest.failf "expected one aggregate, got %d" (List.length aggs)

(* ---- tracing: ring sizing, export shape, context, flight, logctx ---- *)

let test_trace_ring_capacity () =
  Alcotest.(check int) "ring starts at 8192" 8192 (Trace.capacity ());
  let old = Trace.capacity () in
  Fun.protect ~finally:(fun () -> Trace.set_capacity old) @@ fun () ->
  Obs.with_enabled true @@ fun () ->
  Trace.set_capacity 32;
  for i = 0 to 39 do
    Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "count survives truncation" 40 (Trace.span_count ());
  let spans = Trace.spans () in
  Alcotest.(check int) "ring bounded" 32 (List.length spans);
  (* 40 spans through a 32-slot ring: s0..s7 fell off the front *)
  Alcotest.(check string) "oldest survivor" "s8" (List.hd spans).Trace.name;
  Alcotest.check_raises "below minimum"
    (Invalid_argument "Trace.set_capacity: 4 outside [16, 1048576]") (fun () ->
      Trace.set_capacity 4);
  (* the flight recorder's fixed ring truncates the same way *)
  Fun.protect ~finally:Flight.reset @@ fun () ->
  Flight.reset ();
  let n = Flight.capacity + 88 in
  for i = 0 to n - 1 do
    Flight.record_log ~level:"info" ~src:"test" (string_of_int i)
  done;
  Alcotest.(check int) "flight count survives truncation" n
    (Flight.event_count ());
  let events = Flight.events () in
  Alcotest.(check int) "flight ring bounded" Flight.capacity
    (List.length events);
  Alcotest.(check string) "oldest flight survivor" "88"
    (List.hd events).Flight.ev_detail

(* The shared ring against a list model: the model keeps every push,
   the ring must show its last [capacity] elements. *)
let prop_bounded_ring_model =
  let op = QCheck.(option (int_bound 1000)) in
  QCheck.Test.make ~count:500 ~name:"bounded ring matches a list model"
    QCheck.(pair (int_bound 40) (list op))
    (fun (cap, ops) ->
      let r = Bounded_ring.create cap in
      let model = ref [] and pushed = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
              Bounded_ring.push r x;
              model := !model @ [ x ];
              incr pushed
          | None ->
              Bounded_ring.clear r;
              model := [];
              pushed := 0);
          let kept =
            List.filteri
              (fun i _ -> i >= List.length !model - cap)
              !model
          in
          Bounded_ring.to_list r = kept
          && Bounded_ring.newest r
             = (match List.rev kept with x :: _ -> Some x | [] -> None)
          && Bounded_ring.pushed r = !pushed
          && Bounded_ring.capacity r = cap)
        ops)

let test_chrome_golden () =
  let tid = "0123456789abcdef0123456789abcdef" in
  let spans =
    [
      {
        Trace.id = 1;
        parent = None;
        name = {|solve "mca"|};
        start = 1.5;
        dur = 0.25;
        domain = 0;
        alloc = 2048.0;
        trace = Some tid;
      };
      {
        Trace.id = 2;
        parent = Some 1;
        name = "inner";
        start = 1.625;
        dur = 0.125;
        domain = 1;
        alloc = 0.0;
        trace = None;
      };
    ]
  in
  let expected =
    {|{"displayTimeUnit":"ms","traceEvents":[|}
    ^ {|{"name":"solve \"mca\"","cat":"dsvc","ph":"X","ts":1500000.0,"dur":250000.0,"pid":1,"tid":0,"args":{"id":1,"parent":null,"trace":"0123456789abcdef0123456789abcdef","alloc_bytes":2048}},|}
    ^ {|{"name":"inner","cat":"dsvc","ph":"X","ts":1625000.0,"dur":125000.0,"pid":1,"tid":1,"args":{"id":2,"parent":1,"trace":null,"alloc_bytes":0}}|}
    ^ "]}"
  in
  Alcotest.(check string) "trace_event golden" expected
    (Trace.chrome_json_of_spans spans)

let test_context_traceparent_roundtrip () =
  let ctx = Ctx.make ~sampled:true () in
  Alcotest.(check int) "trace id is 32 hex chars" 32
    (String.length ctx.Ctx.trace_id);
  Alcotest.(check int) "request id is 16 hex chars" 16
    (String.length ctx.Ctx.request_id);
  let hdr = Ctx.to_traceparent ~span:255 ctx in
  Alcotest.(check string) "w3c shape"
    ("00-" ^ ctx.Ctx.trace_id ^ "-00000000000000ff-01")
    hdr;
  (match Ctx.of_traceparent hdr with
  | None -> Alcotest.fail "valid header must parse"
  | Some c ->
      Alcotest.(check string) "trace id survives" ctx.Ctx.trace_id c.Ctx.trace_id;
      Alcotest.(check (option int)) "span id survives" (Some 255)
        c.Ctx.parent_span;
      Alcotest.(check bool) "sampled flag survives" true c.Ctx.sampled);
  (match Ctx.of_traceparent ("00-" ^ ctx.Ctx.trace_id ^ "-00000000000000ff-00") with
  | Some c -> Alcotest.(check bool) "unsampled flag survives" false c.Ctx.sampled
  | None -> Alcotest.fail "valid unsampled header must parse");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (Ctx.of_traceparent bad = None))
    [ ""; "zz-nope"; "00-abc-def-01"; "00-" ^ ctx.Ctx.trace_id ^ "-xyz-01" ];
  Alcotest.(check (option string)) "sanitize keeps clean ids"
    (Some "req-1.a_B") (Ctx.sanitize_id " req-1.a_B ");
  Alcotest.(check (option string)) "sanitize drops header injection" None
    (Ctx.sanitize_id "evil\r\nX-Other: 1");
  (* head sampling: any 8 consecutive decisions sample exactly one *)
  Alcotest.(check int) "sample interval" 8 Ctx.sample_interval;
  Alcotest.(check int) "one in eight sampled" 1
    (List.length (List.filter (fun c -> c.Ctx.sampled)
       (List.init 8 (fun _ -> Ctx.make ()))))

let test_flight_gate_independent () =
  Obs.with_enabled false @@ fun () ->
  Fun.protect ~finally:(fun () -> Flight.reset ()) @@ fun () ->
  Flight.reset ();
  Trace.reset ();
  (* No ambient context: the off path records nowhere. *)
  Trace.with_span "dark" (fun () -> ());
  Alcotest.(check int) "no trace spans" 0 (Trace.span_count ());
  Alcotest.(check int) "no flight events" 0 (Flight.event_count ());
  (* A sampled context: flight only, trace ring still untouched. *)
  let ctx = Ctx.make ~sampled:true () in
  Ctx.with_context ctx (fun () -> Trace.with_span "lit" (fun () -> ()));
  Alcotest.(check int) "trace ring still empty" 0 (Trace.span_count ());
  Alcotest.(check int) "one flight event" 1 (Flight.event_count ());
  let json = Flight.to_json () in
  Alcotest.(check bool) "dump names the span" true (contains json {|"lit"|});
  Alcotest.(check bool) "dump carries the trace id" true
    (contains json ctx.Ctx.trace_id)

let test_logctx_stamps_ids () =
  let buf = Buffer.create 256 in
  let saved_level = Logs.level () in
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter Logs.nop_reporter;
      Logs.set_level saved_level;
      Unix.putenv "DSVC_LOG_FORMAT" "";
      Flight.reset ())
  @@ fun () ->
  Logs.set_reporter (Logctx.reporter ~out:(Buffer.add_string buf) ());
  Logs.set_level (Some Logs.Info);
  Flight.reset ();
  let ctx = Ctx.make ~sampled:false () in
  Ctx.with_context ctx (fun () -> Logs.info (fun m -> m "hello %d" 42));
  let line = Buffer.contents buf in
  Alcotest.(check bool) "message present" true (contains line "hello 42");
  Alcotest.(check bool) "request id stamped" true
    (contains line ctx.Ctx.request_id);
  Alcotest.(check bool) "trace id stamped" true (contains line ctx.Ctx.trace_id);
  Alcotest.(check int) "record mirrored into flight ring" 1
    (Flight.event_count ());
  Buffer.clear buf;
  Unix.putenv "DSVC_LOG_FORMAT" "json";
  Ctx.with_context ctx (fun () ->
      Logctx.with_fields
        [ ("op", "test") ]
        (fun () -> Logs.warn (fun m -> m "json line")));
  let line = Buffer.contents buf in
  Alcotest.(check bool) "json level" true (contains line {|"level":"warning"|});
  Alcotest.(check bool) "json message" true (contains line {|"msg":"json line"|});
  Alcotest.(check bool) "explicit field" true (contains line {|"op":"test"|});
  Alcotest.(check bool) "json request id" true
    (contains line ctx.Ctx.request_id)

let test_pool_trace_propagation () =
  Obs.with_enabled true @@ fun () ->
  Fun.protect ~finally:(fun () -> Flight.reset ()) @@ fun () ->
  Trace.reset ();
  Flight.reset ();
  let n = 64 in
  let ctx = Ctx.make ~sampled:true () in
  Ctx.with_context ctx @@ fun () ->
  let out =
    Trace.with_span "outer" (fun () ->
        Pool.parallel_init ~jobs:2 n (fun i ->
            Trace.with_span "task" (fun () -> i)))
  in
  Alcotest.(check int) "results intact" (n - 1) out.(n - 1);
  let spans = Trace.spans () in
  let pool_span =
    List.find (fun s -> s.Trace.name = "pool.parallel_init") spans
  in
  let tasks = List.filter (fun s -> s.Trace.name = "task") spans in
  Alcotest.(check int) "every task recorded" n (List.length tasks);
  List.iter
    (fun (s : Trace.span) ->
      Alcotest.(check (option int)) "parent survives the domain hop"
        (Some pool_span.Trace.id) s.Trace.parent;
      Alcotest.(check (option string)) "trace id survives the domain hop"
        (Some ctx.Ctx.trace_id) s.Trace.trace)
    tasks;
  Alcotest.(check bool) "sampled spans reached the flight ring" true
    (Flight.event_count () > 0)

let suite =
  [
    Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
    Alcotest.test_case "json golden" `Quick test_json_golden;
    Alcotest.test_case "series label order" `Quick test_series_label_order;
    Alcotest.test_case "type conflict rejected" `Quick
      test_type_conflict_rejected;
    QCheck_alcotest.to_alcotest prop_hist_sum_count;
    QCheck_alcotest.to_alcotest prop_bounded_ring_model;
    Alcotest.test_case "default registry gated" `Quick
      test_default_registry_gated;
    Alcotest.test_case "time runs either way" `Quick test_time_runs_either_way;
    Alcotest.test_case "span disabled noop" `Quick test_span_disabled_noop;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception recorded" `Quick
      test_span_exception_recorded;
    Alcotest.test_case "span across pool" `Quick test_span_across_pool;
    Alcotest.test_case "chrome export and summary" `Quick
      test_chrome_export_and_summary;
    Alcotest.test_case "trace ring capacity" `Quick test_trace_ring_capacity;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
    Alcotest.test_case "traceparent roundtrip" `Quick
      test_context_traceparent_roundtrip;
    Alcotest.test_case "flight recorder gate-independent" `Quick
      test_flight_gate_independent;
    Alcotest.test_case "logctx stamps ids" `Quick test_logctx_stamps_ids;
    Alcotest.test_case "pool trace propagation" `Quick
      test_pool_trace_propagation;
  ]
