(* Alert rules over the metrics time-series (DESIGN.md §16).

   Two rule shapes: static thresholds (value vs bound, with a hold
   period so a single spike does not page) and multi-window SLO
   burn-rate rules in the SRE-workbook style — the SLI is a success
   ratio in [0,1]; the burn rate over a window is
   (1 − avg SLI) / (1 − objective), i.e. how many times faster than
   budget the error budget is being spent; the rule fires only when
   BOTH a short and a long window exceed the factor, so it is fast on
   real incidents and quiet on noise.

   Evaluation is deterministic under an injectable clock: [eval] takes
   [~now] and reads only the time-series, so tests replay exact
   histories. Suppression is an annotation, not a mask — a suppressed
   rule still tracks state, it just says so in the report (an operator
   silencing a known condition must not blind the record).

   Lock discipline: rule values are computed from the time-series
   BEFORE taking this module's mutex, so the two locks never nest. *)

type cmp = Lt | Gt

type rule =
  | Threshold of {
      metric : string;
      cmp : cmp;
      bound : float;
      hold : float; (* seconds the condition must persist; 0 = immediate *)
      window : float; (* averaging window; 0 = latest sample *)
    }
  | Burn_rate of {
      metric : string; (* a success-ratio SLI series in [0,1] *)
      objective : float; (* e.g. 0.99 *)
      short_window : float;
      long_window : float;
      factor : float; (* fire when both windows burn above this *)
    }

type state = Inactive | Pending of float | Firing of float | Resolved of float

type alert = {
  a_name : string;
  a_rule : rule;
  mutable a_state : state;
  mutable a_value : float option; (* last evaluated value *)
  mutable a_suppressed : string option;
}

type t = { mutex : Mutex.t; alerts : alert array }

type info = {
  i_name : string;
  i_rule : rule;
  i_state : state;
  i_value : float option;
  i_suppressed : string option;
}

let create ~rules =
  {
    mutex = Mutex.create ();
    alerts =
      Array.of_list
        (List.map
           (fun (name, rule) ->
             { a_name = name; a_rule = rule; a_state = Inactive;
               a_value = None; a_suppressed = None })
           rules);
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let rule_names t = Array.to_list (Array.map (fun a -> a.a_name) t.alerts)

let suppress t ~name ~reason =
  with_lock t (fun () ->
      Array.iter
        (fun a -> if a.a_name = name then a.a_suppressed <- Some reason)
        t.alerts)

let unsuppress t ~name =
  with_lock t (fun () ->
      Array.iter
        (fun a -> if a.a_name = name then a.a_suppressed <- None)
        t.alerts)

(* The rule's observed value and whether the firing condition holds.
   [None] means the series has no data in scope — a rule cannot fire
   on absence. *)
let evaluate_rule rule ~ts ~now =
  match rule with
  | Threshold { metric; cmp; bound; window; _ } -> (
      let value =
        if window > 0.0 then Timeseries.avg ts ~metric ~window ~now
        else Timeseries.latest ts ~metric
      in
      match value with
      | None -> (None, false)
      | Some v ->
          (Some v, (match cmp with Lt -> v < bound | Gt -> v > bound)))
  | Burn_rate { metric; objective; short_window; long_window; factor } -> (
      let budget = 1.0 -. objective in
      if budget <= 0.0 then (None, false)
      else
        let burn window =
          Option.map
            (fun sli -> (1.0 -. sli) /. budget)
            (Timeseries.avg ts ~metric ~window ~now)
        in
        match (burn short_window, burn long_window) with
        | Some s, Some l -> (Some s, s > factor && l > factor)
        | Some s, None -> (Some s, false)
        | None, _ -> (None, false))

let hold_of = function
  | Threshold { hold; _ } -> hold
  | Burn_rate _ -> 0.0 (* the long window is already the damper *)

let step_state state ~cond ~hold ~now =
  if cond then
    match state with
    | Firing _ -> state
    | Pending since -> if now -. since >= hold then Firing since else state
    | Inactive | Resolved _ ->
        if hold <= 0.0 then Firing now else Pending now
  else
    match state with
    | Firing _ -> Resolved now
    | Pending _ -> Inactive
    | Inactive | Resolved _ -> state

let eval t ~ts ~now =
  (* values first, lock second: the Timeseries mutex and ours must
     never be held together *)
  let results =
    Array.map (fun a -> evaluate_rule a.a_rule ~ts ~now) t.alerts
  in
  with_lock t (fun () ->
      Array.iteri
        (fun i a ->
          let value, cond = results.(i) in
          a.a_value <- value;
          a.a_state <-
            step_state a.a_state ~cond ~hold:(hold_of a.a_rule) ~now)
        t.alerts)

let report t =
  with_lock t (fun () ->
      Array.to_list
        (Array.map
           (fun a ->
             { i_name = a.a_name; i_rule = a.a_rule; i_state = a.a_state;
               i_value = a.a_value; i_suppressed = a.a_suppressed })
           t.alerts))

let state_name = function
  | Inactive -> "inactive"
  | Pending _ -> "pending"
  | Firing _ -> "firing"
  | Resolved _ -> "resolved"

(* One line per rule, grep-friendly: name state since value [suppressed]. *)
let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun i ->
      let since =
        match i.i_state with
        | Inactive -> "-"
        | Pending s | Firing s | Resolved s -> Printf.sprintf "%.3f" s
      in
      let value =
        match i.i_value with Some v -> Printf.sprintf "%.6g" v | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s since=%s value=%s%s\n" i.i_name
           (state_name i.i_state) since value
           (match i.i_suppressed with
           | Some reason ->
               Printf.sprintf " suppressed=%S"
                 (String.map (fun c -> if c = '\n' then ' ' else c) reason)
           | None -> "")))
    (report t);
  Buffer.contents buf

(* ---- the stock rule set ----

   Windows and bounds are constants: 5 min/1 h burn-rate windows, a
   60 s hold, a 2 s checkout p99 and a drift score of 1. The metric
   names are the derived SLI series the Sampler maintains
   (reserved "sli:" prefix), so rules survive label churn in the raw
   registry. *)

let default_rules () =
  let short = 300.0 and long = 3600.0 and hold = 60.0 in
  [
    ( "checkout_p99",
      Threshold
        {
          metric = "sli:checkout_p99_seconds";
          cmp = Gt;
          bound = 2.0;
          hold;
          window = 0.0;
        } );
    ( "drift_score",
      Threshold
        {
          metric = "sli:drift_score";
          cmp = Gt;
          bound = 1.0;
          hold;
          window = 0.0;
        } );
    ( "quorum_write_burn",
      Burn_rate
        {
          metric = "sli:quorum_write_success";
          objective = 0.99;
          short_window = short;
          long_window = long;
          factor = 2.0;
        } );
    ( "scrape_up_burn",
      Burn_rate
        {
          metric = "sli:scrape_up";
          objective = 0.99;
          short_window = short;
          long_window = long;
          factor = 2.0;
        } );
    (* The fast path for the chaos drill: any peer unscrapeable right
       now fires on the next evaluation — burn-rate math alone would
       take a large slice of the short window to cross its factor. *)
    ( "cluster_scrape_up",
      Threshold
        {
          metric = "sli:scrape_up";
          cmp = Lt;
          bound = 1.0;
          hold = 0.0;
          window = 0.0;
        } );
  ]
