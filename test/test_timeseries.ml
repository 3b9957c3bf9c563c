(* The cluster health observatory (DESIGN.md §16): the tiered
   time-series ring (aggregation, tier selection, bounded retention,
   persistence roundtrip), the alert state machine (threshold holds,
   burn rates, suppression), the sampler's derived SLIs over a private
   registry, the env_float knob parser, and the reactor timer that
   drives the whole thing. Every module under test takes ~now, so the
   histories here are replayed on a hand-cranked clock. *)

module Obs = Versioning_obs.Obs
module Metrics = Versioning_obs.Metrics
module Timeseries = Versioning_obs.Timeseries
module Alerts = Versioning_obs.Alerts
module Sampler = Versioning_obs.Sampler
module Evloop = Versioning_util.Evloop

let ts ?(step = 1.0) ?(cap = 360) ?max_series () =
  Timeseries.create ~step ~cap ?max_series ()

(* ---- recording and aggregation ---- *)

let test_record_aggregates () =
  let t = ts () in
  Alcotest.(check bool) "fresh ring is empty" true (Timeseries.is_empty t);
  (* three observations into the same 1 s bucket *)
  Timeseries.record t ~now:100.1 ~metric:"m" 4.0;
  Timeseries.record t ~now:100.5 ~metric:"m" 2.0;
  Timeseries.record t ~now:100.9 ~metric:"m" 6.0;
  (match Timeseries.query t ~metric:"m" ~now:101.0 () with
  | [ s ] ->
      Alcotest.(check int) "count" 3 s.Timeseries.s_count;
      Alcotest.(check (float 1e-9)) "avg" 4.0 s.Timeseries.s_avg;
      Alcotest.(check (float 1e-9)) "min" 2.0 s.Timeseries.s_min;
      Alcotest.(check (float 1e-9)) "max" 6.0 s.Timeseries.s_max;
      Alcotest.(check (float 1e-9)) "last" 6.0 s.Timeseries.s_last;
      Alcotest.(check (float 1e-9)) "bucket start" 100.0 s.Timeseries.s_time
  | l -> Alcotest.failf "expected one bucket, got %d" (List.length l));
  Alcotest.(check (option (float 1e-9))) "latest" (Some 6.0)
    (Timeseries.latest t ~metric:"m");
  Alcotest.(check (option (float 1e-9))) "unknown metric has no latest" None
    (Timeseries.latest t ~metric:"nope");
  Alcotest.(check (list string)) "series listing sorted" [ "m" ]
    (Timeseries.metrics t);
  (* NaN observations are dropped, not folded in *)
  Timeseries.record t ~now:100.95 ~metric:"m" Float.nan;
  match Timeseries.query t ~metric:"m" ~now:101.0 () with
  | [ s ] -> Alcotest.(check int) "NaN dropped" 3 s.Timeseries.s_count
  | _ -> Alcotest.fail "bucket vanished"

let test_tier_selection_and_trim () =
  let t = ts ~cap:10 () in
  (* 500 one-per-second observations: the fine tier (cap 10) keeps the
     last 10 s, the 10x tier the last 100 s, the 100x tier all 500 *)
  for i = 0 to 499 do
    Timeseries.record t ~now:(float_of_int i +. 0.5) ~metric:"m" 1.0
  done;
  let now = 500.0 in
  let fine = Timeseries.query t ~metric:"m" ~since:(now -. 8.0) ~now () in
  Alcotest.(check int) "short span from the fine tier" 8 (List.length fine);
  List.iter
    (fun s -> Alcotest.(check int) "fine buckets hold 1 obs" 1 s.Timeseries.s_count)
    fine;
  let mid = Timeseries.query t ~metric:"m" ~since:(now -. 80.0) ~now () in
  Alcotest.(check int) "medium span falls back to the 10x tier" 8
    (List.length mid);
  List.iter
    (fun s ->
      Alcotest.(check int) "10x buckets aggregate 10 obs" 10
        s.Timeseries.s_count)
    mid;
  let coarse = Timeseries.query t ~metric:"m" ~since:(now -. 450.0) ~now () in
  Alcotest.(check bool) "long span served by the 100x tier" true
    (List.length coarse >= 4
    && List.for_all (fun s -> s.Timeseries.s_count = 100) coarse);
  (* retention is bounded: no tier can return more than cap buckets *)
  let all = Timeseries.query t ~metric:"m" ~since:(-1e9) ~now () in
  Alcotest.(check bool) "rings bounded by cap" true (List.length all <= 10);
  (* samples come oldest-first and strictly increasing *)
  let times = List.map (fun s -> s.Timeseries.s_time) all in
  Alcotest.(check bool) "oldest first" true
    (List.sort compare times = times)

let test_max_series_cap () =
  let t = ts ~max_series:3 () in
  for i = 0 to 9 do
    Timeseries.record t ~now:1.0 ~metric:(Printf.sprintf "m%d" i) 1.0
  done;
  Alcotest.(check int) "cardinality capped" 3 (Timeseries.series_count t);
  Alcotest.(check (list Alcotest.string)) "first names won" [ "m0"; "m1"; "m2" ]
    (Timeseries.metrics t)

let test_windowed_avg () =
  let t = ts () in
  Timeseries.record t ~now:10.5 ~metric:"m" 1.0;
  Timeseries.record t ~now:11.5 ~metric:"m" 2.0;
  Timeseries.record t ~now:12.5 ~metric:"m" 2.0;
  Timeseries.record t ~now:12.7 ~metric:"m" 4.0;
  (* window covers the last two buckets: (2+4+2)/3 over 3 obs *)
  Alcotest.(check (option (float 1e-9))) "observation-weighted mean"
    (Some (8.0 /. 3.0))
    (Timeseries.avg t ~metric:"m" ~window:2.0 ~now:13.0);
  Alcotest.(check (option (float 1e-9))) "empty window" None
    (Timeseries.avg t ~metric:"m" ~window:2.0 ~now:100.0);
  Alcotest.(check (option (float 1e-9))) "unknown series" None
    (Timeseries.avg t ~metric:"zzz" ~window:2.0 ~now:13.0)

(* ---- persistence ---- *)

let test_render_parse_roundtrip () =
  let t = ts ~step:5.0 () in
  Timeseries.record t ~now:100.0 ~metric:"plain" 0.1;
  Timeseries.record t ~now:105.0 ~metric:"plain" (-3.5);
  (* names with spaces and label syntax must survive the text form *)
  Timeseries.record t ~now:100.0 ~metric:{|odd name{peer="x y"}|} 1e-300;
  Timeseries.record t ~now:200.0 ~metric:"plain" infinity;
  let text = Timeseries.render t in
  let t' =
    match Timeseries.parse text with
    | Ok t' -> t'
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check bool) "roundtrip equal" true (Timeseries.equal t t');
  Alcotest.(check string) "render is deterministic" text
    (Timeseries.render t');
  Alcotest.(check bool) "trailer present" true
    (String.length text >= 4 && String.sub text (String.length text - 4) 4 = "end\n")

let test_parse_rejects_garbage () =
  let rejects name parse s =
    match parse s with
    | Error e ->
        Alcotest.(check bool) (name ^ " error names the file as corrupt") true
          (String.starts_with ~prefix:"corrupt " e)
    | Ok _ -> Alcotest.failf "%s parse accepted %S" name s
  in
  let bad = rejects "timeseries" Timeseries.parse in
  bad "";
  bad "not a timeseries\n";
  (* headerless, and a format version this build does not read *)
  bad "conf 0x1p+0 4\nend\n";
  bad "end\n";
  bad "timeseries 2\nconf 0x1p+0 4\nend\n";
  let bad_ledger = rejects "telemetry" Versioning_obs.Telemetry.parse in
  bad_ledger "events 3\nend\n";
  bad_ledger "end\n";
  bad_ledger "telemetry 2\nevents 3\nend\n";
  (* a torn write: valid prefix, missing [end] trailer *)
  let t = ts () in
  Timeseries.record t ~now:1.0 ~metric:"m" 1.0;
  let text = Timeseries.render t in
  bad (String.sub text 0 (String.length text - 4));
  bad (text ^ "trailing junk\n")

let qcheck_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 60)
        (triple (int_range 0 2000) (int_range 0 4) (float_range (-1e6) 1e6)))
  in
  QCheck.Test.make ~count:200 ~name:"timeseries render/parse roundtrip"
    (QCheck.make gen) (fun obs ->
      let t = ts ~step:2.0 ~cap:20 () in
      List.iter
        (fun (tick, series, v) ->
          Timeseries.record t
            ~now:(float_of_int tick /. 2.0)
            ~metric:(Printf.sprintf "series %d" series)
            v)
        obs;
      match Timeseries.parse (Timeseries.render t) with
      | Ok t' -> Timeseries.equal t t'
      | Error _ -> false)

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Timeseries.sparkline []);
  let line = Timeseries.sparkline [ 0.0; 1.0; 2.0; 3.0 ] in
  (* each glyph is a 3-byte UTF-8 block element *)
  Alcotest.(check int) "one glyph per value" 12 (String.length line);
  Alcotest.(check string) "ramp ends at full block" "\xe2\x96\x88"
    (String.sub line 9 3);
  Alcotest.(check string) "ramp starts at the lowest block" "\xe2\x96\x81"
    (String.sub line 0 3);
  let flat = Timeseries.sparkline [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check string) "flat series renders mid-height"
    "\xe2\x96\x84\xe2\x96\x84\xe2\x96\x84" flat

(* ---- alert rules ---- *)

let threshold_rule =
  Alerts.Threshold
    { metric = "m"; cmp = Alerts.Gt; bound = 10.0; hold = 5.0; window = 0.0 }

let state_of alerts name =
  match
    List.find_opt (fun i -> i.Alerts.i_name = name) (Alerts.report alerts)
  with
  | Some i -> Alerts.state_name i.Alerts.i_state
  | None -> Alcotest.failf "rule %s missing from report" name

let test_threshold_state_machine () =
  let t = ts () in
  let a = Alerts.create ~rules:[ ("hot", threshold_rule) ] in
  Alcotest.(check (list string)) "rule registered" [ "hot" ]
    (Alerts.rule_names a);
  Alerts.eval a ~ts:t ~now:0.0;
  Alcotest.(check string) "no data, inactive" "inactive" (state_of a "hot");
  (* bad values: pending until the hold elapses, then firing *)
  Timeseries.record t ~now:10.0 ~metric:"m" 50.0;
  Alerts.eval a ~ts:t ~now:10.0;
  Alcotest.(check string) "first breach is pending" "pending"
    (state_of a "hot");
  Timeseries.record t ~now:13.0 ~metric:"m" 50.0;
  Alerts.eval a ~ts:t ~now:13.0;
  Alcotest.(check string) "inside the hold, still pending" "pending"
    (state_of a "hot");
  Timeseries.record t ~now:16.0 ~metric:"m" 50.0;
  Alerts.eval a ~ts:t ~now:16.0;
  Alcotest.(check string) "hold elapsed, firing" "firing" (state_of a "hot");
  (* the render line carries the incident start, not the page time *)
  let line =
    List.find
      (fun l -> String.length l > 3 && String.sub l 0 3 = "hot")
      (String.split_on_char '\n' (Alerts.render a))
  in
  Alcotest.(check bool) "since names the pending start" true
    (let rec contains i =
       i + 8 <= String.length line
       && (String.sub line i 8 = "since=10" || contains (i + 1))
     in
     contains 0);
  (* recovery: one good evaluation resolves *)
  Timeseries.record t ~now:20.0 ~metric:"m" 1.0;
  Alerts.eval a ~ts:t ~now:20.0;
  Alcotest.(check string) "good value resolves" "resolved" (state_of a "hot");
  (* a pending blip that recovers never fired, so it goes back to
     inactive rather than claiming a resolution *)
  Timeseries.record t ~now:30.0 ~metric:"m" 50.0;
  Alerts.eval a ~ts:t ~now:30.0;
  Timeseries.record t ~now:32.0 ~metric:"m" 1.0;
  Alerts.eval a ~ts:t ~now:32.0;
  Alcotest.(check string) "blip stays un-fired" "inactive" (state_of a "hot")

let test_zero_hold_fires_immediately () =
  let t = ts () in
  let a =
    Alerts.create
      ~rules:
        [
          ( "up",
            Alerts.Threshold
              {
                metric = "sli:scrape_up";
                cmp = Alerts.Lt;
                bound = 1.0;
                hold = 0.0;
                window = 0.0;
              } );
        ]
  in
  Timeseries.record t ~now:5.0 ~metric:"sli:scrape_up" 0.5;
  Alerts.eval a ~ts:t ~now:5.0;
  Alcotest.(check string) "hold 0 fires on the first breach" "firing"
    (state_of a "up")

let test_burn_rate_needs_both_windows () =
  let t = ts () in
  let rule =
    Alerts.Burn_rate
      {
        metric = "sli";
        objective = 0.9;
        short_window = 10.0;
        long_window = 100.0;
        factor = 2.0;
      }
  in
  let a = Alerts.create ~rules:[ ("burn", rule) ] in
  (* a long healthy history, then a sharp error burst: the short
     window burns hot long before the long window catches up *)
  for i = 0 to 89 do
    Timeseries.record t ~now:(float_of_int i +. 0.5) ~metric:"sli" 1.0
  done;
  for i = 90 to 99 do
    Timeseries.record t ~now:(float_of_int i +. 0.5) ~metric:"sli" 0.0
  done;
  (* short window: SLI 0.0 -> burn 10; long window: SLI 0.9 -> burn 1,
     under the factor — the blip alone must not fire *)
  Alerts.eval a ~ts:t ~now:100.0;
  Alcotest.(check string) "short-only breach stays quiet" "inactive"
    (state_of a "burn");
  (* sustained burst: now both windows exceed the factor *)
  for i = 100 to 169 do
    Timeseries.record t ~now:(float_of_int i +. 0.5) ~metric:"sli" 0.0
  done;
  Alerts.eval a ~ts:t ~now:170.0;
  Alcotest.(check string) "sustained burn fires" "firing" (state_of a "burn")

let test_suppression_annotates () =
  let t = ts () in
  let a = Alerts.create ~rules:[ ("hot", threshold_rule) ] in
  Alerts.suppress a ~name:"hot" ~reason:"maintenance window";
  Timeseries.record t ~now:10.0 ~metric:"m" 50.0;
  Alerts.eval a ~ts:t ~now:10.0;
  (* suppression never masks the true state *)
  Alcotest.(check string) "suppressed rule keeps evaluating" "pending"
    (state_of a "hot");
  let text = Alerts.render a in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  Alcotest.(check bool) "annotation rendered" true
    (contains text {|suppressed="maintenance window"|});
  Alerts.unsuppress a ~name:"hot";
  Alcotest.(check bool) "annotation removed" false
    (contains (Alerts.render a) "suppressed")

let test_default_rules_scrape_up () =
  let t = ts () in
  let a = Alerts.create ~rules:(Alerts.default_rules ()) in
  (* the kill-a-node path CI exercises: one bad up-fraction sample and
     the immediate threshold is already firing *)
  Timeseries.record t ~now:5.0 ~metric:"sli:scrape_up" 0.66;
  Alerts.eval a ~ts:t ~now:5.0;
  Alcotest.(check string) "dead peer fires within one step" "firing"
    (state_of a "cluster_scrape_up");
  Timeseries.record t ~now:10.0 ~metric:"sli:scrape_up" 1.0;
  Alerts.eval a ~ts:t ~now:10.0;
  Alcotest.(check string) "recovery resolves it" "resolved"
    (state_of a "cluster_scrape_up")

(* The stock windows and bounds are constants; pin them. *)
let test_default_rules_values () =
  let thresholds, burns =
    List.partition_map
      (function
        | name, Alerts.Threshold r -> Left (name, (r.bound, r.hold, r.window))
        | name, Alerts.Burn_rate r ->
            Right (name, (r.short_window, r.long_window, r.objective, r.factor)))
      (Alerts.default_rules ())
  in
  Alcotest.(check (list (pair string (triple (float 0.) (float 0.) (float 0.)))))
    "thresholds: bound, hold, window"
    [
      ("checkout_p99", (2.0, 60.0, 0.0));
      ("drift_score", (1.0, 60.0, 0.0));
      ("cluster_scrape_up", (1.0, 0.0, 0.0));
    ]
    thresholds;
  List.iter
    (fun (name, (short, long, objective, factor)) ->
      Alcotest.(check (float 0.)) (name ^ " short window") 300.0 short;
      Alcotest.(check (float 0.)) (name ^ " long window") 3600.0 long;
      Alcotest.(check (float 0.)) (name ^ " objective") 0.99 objective;
      Alcotest.(check (float 0.)) (name ^ " factor") 2.0 factor)
    burns;
  Alcotest.(check (list string)) "burn-rate rules"
    [ "quorum_write_burn"; "scrape_up_burn" ]
    (List.map fst burns)

(* ---- the sampler over a private registry ---- *)

let test_sampler_derives_slis () =
  Obs.with_enabled true @@ fun () ->
  let r = Metrics.create () in
  let t = ts ~step:5.0 () in
  let a = Alerts.create ~rules:(Alerts.default_rules ()) in
  let up = ref (Some 1.0) in
  let s =
    Sampler.create ~registry:r ~alerts:a ~up_fraction:(fun () -> !up) ~ts:t ()
  in
  Alcotest.(check bool) "sampler exposes its ring" true
    (Sampler.timeseries s == t);
  Metrics.gauge ~registry:r
    ~labels:[ ("repo", "/tmp/x") ]
    "dsvc_store_drift_score" 0.25;
  Metrics.counter ~registry:r
    ~labels:[ ("op", "put"); ("outcome", "ok") ]
    ~by:8.0 "dsvc_cluster_quorum_total";
  Sampler.tick s ~now:10.0;
  (* raw registry samples land under their exposition names *)
  Alcotest.(check (option (float 1e-9))) "gauge sampled" (Some 0.25)
    (Timeseries.latest t ~metric:{|dsvc_store_drift_score{repo="/tmp/x"}|});
  Alcotest.(check (option (float 1e-9))) "drift SLI strips the label"
    (Some 0.25)
    (Timeseries.latest t ~metric:"sli:drift_score");
  Alcotest.(check (option (float 1e-9))) "up fraction recorded" (Some 1.0)
    (Timeseries.latest t ~metric:"sli:scrape_up");
  (* second window: 2 ok, 1 failed -> 2/3 success since last tick *)
  Metrics.counter ~registry:r
    ~labels:[ ("op", "put"); ("outcome", "ok") ]
    ~by:2.0 "dsvc_cluster_quorum_total";
  Metrics.counter ~registry:r
    ~labels:[ ("op", "put"); ("outcome", "failed") ]
    "dsvc_cluster_quorum_total";
  up := Some 0.5;
  Sampler.tick s ~now:15.0;
  Alcotest.(check (option (float 1e-9))) "quorum success is the window diff"
    (Some (2.0 /. 3.0))
    (Timeseries.latest t ~metric:"sli:quorum_write_success");
  (* an idle window is healthy, not an error *)
  Sampler.tick s ~now:20.0;
  Alcotest.(check (option (float 1e-9))) "idle window counts as success"
    (Some 1.0)
    (Timeseries.latest t ~metric:"sli:quorum_write_success");
  (* the degraded up-fraction already fired the immediate rule *)
  Alcotest.(check string) "sampler drives the alert engine" "firing"
    (state_of a "cluster_scrape_up")

let test_sampler_p99_from_histogram_diff () =
  Obs.with_enabled true @@ fun () ->
  let r = Metrics.create () in
  let t = ts ~step:5.0 () in
  let s = Sampler.create ~registry:r ~ts:t () in
  let observe v =
    Metrics.observe ~registry:r
      ~labels:[ ("route", "/checkout/:name") ]
      "dsvc_server_request_seconds" v
  in
  for _ = 1 to 100 do
    observe 0.003
  done;
  Sampler.tick s ~now:5.0;
  let p99_first = Timeseries.latest t ~metric:"sli:checkout_p99_seconds" in
  Alcotest.(check bool) "first window p99 is small" true
    (match p99_first with Some v -> v <= 0.01 | None -> false);
  (* the next window is all slow requests: the cumulative histogram
     grew, and the p99 must reflect only the diff *)
  for _ = 1 to 100 do
    observe 0.8
  done;
  Sampler.tick s ~now:10.0;
  (match Timeseries.latest t ~metric:"sli:checkout_p99_seconds" with
  | Some v ->
      Alcotest.(check bool) "windowed p99 sees only the new samples" true
        (v >= 0.5)
  | None -> Alcotest.fail "p99 series missing");
  (* an idle window derives nothing rather than repeating stale data *)
  Sampler.tick s ~now:15.0;
  let n =
    List.length
      (Timeseries.query t ~metric:"sli:checkout_p99_seconds" ~since:0.0
         ~now:15.0 ())
  in
  Alcotest.(check int) "no p99 bucket for an idle window" 2 n

(* ---- the env knob parser ---- *)

let test_env_float () =
  let with_env name v f =
    let old = Sys.getenv_opt name in
    Unix.putenv name v;
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv name (match old with Some s -> s | None -> ""))
      f
  in
  let get () = Obs.env_float "DSVC_TEST_KNOB" ~default:5.0 in
  Alcotest.(check (float 1e-9)) "unset yields default" 5.0 (get ());
  with_env "DSVC_TEST_KNOB" "2.5" (fun () ->
      Alcotest.(check (float 1e-9)) "well-formed value wins" 2.5 (get ()));
  with_env "DSVC_TEST_KNOB" "banana" (fun () ->
      Alcotest.(check (float 1e-9)) "garbage falls back" 5.0 (get ()));
  with_env "DSVC_TEST_KNOB" "-1" (fun () ->
      Alcotest.(check (float 1e-9)) "negative rejected by default min" 5.0
        (get ()));
  with_env "DSVC_TEST_KNOB" "0" (fun () ->
      Alcotest.(check (float 1e-9)) "zero rejected by default min" 5.0 (get ()));
  with_env "DSVC_TEST_KNOB" "nan" (fun () ->
      Alcotest.(check (float 1e-9)) "NaN rejected" 5.0 (get ()));
  with_env "DSVC_TEST_KNOB" "100" (fun () ->
      Alcotest.(check (float 1e-9)) "max bound enforced" 5.0
        (Obs.env_float "DSVC_TEST_KNOB" ~max:10.0 ~default:5.0));
  with_env "DSVC_TEST_KNOB" "" (fun () ->
      Alcotest.(check (float 1e-9)) "blank treated as unset" 5.0 (get ()))

(* ---- the reactor timer ---- *)

let test_evloop_timer () =
  let loop = Evloop.create () in
  Fun.protect ~finally:(fun () -> Evloop.close loop) @@ fun () ->
  (match Evloop.add_timer loop ~period:0.0 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive period must be rejected");
  let fired = ref 0 in
  Evloop.add_timer loop ~period:0.02 (fun () -> incr fired);
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !fired < 3 && Unix.gettimeofday () < deadline do
    Evloop.wait loop ~timeout:0.5
  done;
  Alcotest.(check bool) "periodic timer keeps firing" true (!fired >= 3);
  (* a long gap yields at most one catch-up firing per wait, never a
     burst that replays the backlog *)
  let before = !fired in
  Unix.sleepf 0.1;
  Evloop.wait loop ~timeout:0.01;
  Alcotest.(check bool) "no backlog replay" true (!fired - before <= 1)

let suite =
  [
    Alcotest.test_case "bucket aggregation" `Quick test_record_aggregates;
    Alcotest.test_case "tier selection and bounded retention" `Quick
      test_tier_selection_and_trim;
    Alcotest.test_case "series-cardinality cap" `Quick test_max_series_cap;
    Alcotest.test_case "windowed average" `Quick test_windowed_avg;
    Alcotest.test_case "render/parse roundtrip" `Quick
      test_render_parse_roundtrip;
    Alcotest.test_case "torn or foreign files rejected" `Quick
      test_parse_rejects_garbage;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "sparkline glyphs" `Quick test_sparkline;
    Alcotest.test_case "threshold hold state machine" `Quick
      test_threshold_state_machine;
    Alcotest.test_case "zero hold fires immediately" `Quick
      test_zero_hold_fires_immediately;
    Alcotest.test_case "burn rate needs both windows" `Quick
      test_burn_rate_needs_both_windows;
    Alcotest.test_case "suppression annotates, never masks" `Quick
      test_suppression_annotates;
    Alcotest.test_case "stock scrape-up rule round-trips an outage" `Quick
      test_default_rules_scrape_up;
    Alcotest.test_case "default rules keep their windows and bounds" `Quick
      test_default_rules_values;
    Alcotest.test_case "sampler derives the SLI series" `Quick
      test_sampler_derives_slis;
    Alcotest.test_case "sampler p99 reads the histogram diff" `Quick
      test_sampler_p99_from_histogram_diff;
    Alcotest.test_case "env_float knob parsing" `Quick test_env_float;
    Alcotest.test_case "reactor timer fires and clamps" `Quick
      test_evloop_timer;
  ]
