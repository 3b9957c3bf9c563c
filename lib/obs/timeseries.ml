(* Bounded, tiered ring of periodic metric samples (DESIGN.md §16).

   Every recorded value lands in three downsampling tiers per series —
   buckets of step, 10·step and 100·step seconds — each a ring of at
   most [cap] buckets, so memory is O(series · tiers · cap) whatever
   the process uptime. A bucket aggregates count/sum/min/max/last, so
   a coarse tier answers the same questions as the fine one, just at
   lower resolution; [query] picks the finest tier whose retention
   still covers the asked-for span.

   Clocks are injected: [record]/[query] take [~now], so tests replay
   deterministic histories and the only wall-clock reads live with the
   caller (the server-tier sampler). No file I/O here (lint R1): the
   series render to and parse from strings, and [Repo] persists them
   through Fsutil at the "timeseries.save" fault site.

   Concurrency: one mutex per store; the reactor-timer tick records
   while handler threads query, so every entry point locks. *)

type point = {
  p_bucket : int; (* floor(sample time / tier step) *)
  mutable p_count : int;
  mutable p_sum : float;
  mutable p_min : float;
  mutable p_max : float;
  mutable p_last : float;
}

type tier = { t_step : float; t_points : point Bounded_ring.t }

type t = {
  step : float;
  cap : int;
  max_series : int;
  mutex : Mutex.t;
  series : (string, tier array) Hashtbl.t;
}

type sample = {
  s_time : float; (* bucket start, absolute seconds *)
  s_count : int;
  s_avg : float;
  s_min : float;
  s_max : float;
  s_last : float;
}

let tier_multipliers = [| 1; 10; 100 |]
let default_cap = 360

let default_step () = Obs.env_float "DSVC_TS_STEP" ~min:0.01 ~default:5.0

let create ?step ?(cap = default_cap) ?(max_series = 512) () =
  let step = match step with Some s -> s | None -> default_step () in
  if not (step > 0.0) then invalid_arg "Timeseries.create: step must be > 0";
  if cap < 1 then invalid_arg "Timeseries.create: cap must be positive";
  if max_series < 1 then
    invalid_arg "Timeseries.create: max_series must be positive";
  { step; cap; max_series; mutex = Mutex.create (); series = Hashtbl.create 64 }

let step t = t.step

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let mk_tiers t =
  Array.map
    (fun m ->
      { t_step = t.step *. float_of_int m;
        t_points = Bounded_ring.create t.cap })
    tier_multipliers

let bucket_of tier now = int_of_float (Float.floor (now /. tier.t_step))

let record_tier tier ~now v =
  let bucket = bucket_of tier now in
  match Bounded_ring.newest tier.t_points with
  | Some p when p.p_bucket = bucket ->
      p.p_count <- p.p_count + 1;
      p.p_sum <- p.p_sum +. v;
      if v < p.p_min then p.p_min <- v;
      if v > p.p_max then p.p_max <- v;
      p.p_last <- v
  | _ ->
      Bounded_ring.push tier.t_points
        { p_bucket = bucket; p_count = 1; p_sum = v; p_min = v; p_max = v;
          p_last = v }

let record t ~now ~metric v =
  if Float.is_nan v then ()
  else
    with_lock t (fun () ->
        match Hashtbl.find_opt t.series metric with
        | Some tiers -> Array.iter (fun tier -> record_tier tier ~now v) tiers
        | None ->
            (* The series bound is a hard cap: a label-cardinality
               explosion upstream must cost new names, never memory. *)
            if Hashtbl.length t.series < t.max_series then begin
              let tiers = mk_tiers t in
              Hashtbl.add t.series metric tiers;
              Array.iter (fun tier -> record_tier tier ~now v) tiers
            end)

let metrics t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name _ acc -> name :: acc) t.series []
      |> List.sort compare)

let series_count t = with_lock t (fun () -> Hashtbl.length t.series)

let is_empty t = with_lock t (fun () -> Hashtbl.length t.series = 0)

let sample_of tier p =
  {
    s_time = float_of_int p.p_bucket *. tier.t_step;
    s_count = p.p_count;
    s_avg = (if p.p_count = 0 then 0.0 else p.p_sum /. float_of_int p.p_count);
    s_min = p.p_min;
    s_max = p.p_max;
    s_last = p.p_last;
  }

(* The finest tier whose full retention (step · cap) covers the span;
   the coarsest one when nothing does. *)
let pick_tier tiers ~span =
  let n = Array.length tiers in
  let rec go i =
    if i >= n - 1 then tiers.(n - 1)
    else if
      tiers.(i).t_step
      *. float_of_int (Bounded_ring.capacity tiers.(i).t_points)
      >= span
    then
      tiers.(i)
    else go (i + 1)
  in
  go 0

let query t ~metric ?since ~now () =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.series metric with
      | None -> []
      | Some tiers ->
          let since =
            match since with Some s -> s | None -> now -. (t.step *. float_of_int t.cap)
          in
          let tier = pick_tier tiers ~span:(now -. since) in
          List.filter_map
            (fun p ->
              let bucket_end = float_of_int (p.p_bucket + 1) *. tier.t_step in
              if bucket_end > since then Some (sample_of tier p) else None)
            (Bounded_ring.to_list tier.t_points))

let avg t ~metric ~window ~now =
  let samples = query t ~metric ~since:(now -. window) ~now () in
  let count, sum =
    List.fold_left
      (fun (c, s) sm -> (c + sm.s_count, s +. (sm.s_avg *. float_of_int sm.s_count)))
      (0, 0.0) samples
  in
  if count = 0 then None else Some (sum /. float_of_int count)

let latest t ~metric =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.series metric with
      | None -> None
      | Some tiers ->
          Option.map
            (fun p -> p.p_last)
            (Bounded_ring.newest tiers.(0).t_points))

(* ---- rendering / parsing ----

   Same {!Line_file} format as the telemetry ledger, hex floats so
   parse ∘ render is the identity. The series name is the LAST field
   and may contain spaces (rendered label values can), so parsing
   rejoins the tail:

     timeseries 1
     conf <step %h> <cap>
     m <tier> <bucket> <count> <sum %h> <min %h> <max %h> <last %h> <name>
     end *)

let hex = Line_file.hex

let render t =
  with_lock t (fun () ->
      let names =
        Hashtbl.fold (fun name _ acc -> name :: acc) t.series []
        |> List.sort compare
      in
      let series name =
        Array.to_list (Hashtbl.find t.series name)
        |> List.mapi (fun ti tier ->
               List.map
                 (fun p ->
                   Printf.sprintf "m %d %d %d %s %s %s %s %s" ti p.p_bucket
                     p.p_count (hex p.p_sum) (hex p.p_min) (hex p.p_max)
                     (hex p.p_last) name)
                 (Bounded_ring.to_list tier.t_points))
        |> List.concat
      in
      Line_file.render ~magic:"timeseries"
        (Printf.sprintf "conf %s %d" (hex t.step) t.cap
        :: List.concat_map series names))

let parse content =
  let open Line_file in
  let t = ref (create ~step:1.0 ()) in
  Result.map (fun () -> !t)
  @@ parse ~magic:"timeseries" ~what:"timeseries ledger" content (function
       | [ "conf"; s; c ] ->
           let s = float s and c = int c in
           if not (s > 0.0 && c >= 1) then bad "bad conf line";
           t := create ~step:s ~cap:c ()
       | "m" :: ti :: bucket :: count :: sum :: mn :: mx :: last :: name_parts
         ->
           let name = String.concat " " name_parts and ti = int ti in
           let p =
             { p_bucket = int bucket; p_count = int count; p_sum = float sum;
               p_min = float mn; p_max = float mx; p_last = float last }
           in
           if
             name = "" || ti < 0
             || ti >= Array.length tier_multipliers
             || p.p_count < 1
           then bad "bad point line";
           let tiers =
             match Hashtbl.find_opt !t.series name with
             | Some tiers -> tiers
             | None ->
                 let tiers = mk_tiers !t in
                 Hashtbl.add !t.series name tiers;
                 tiers
           in
           (* file order is oldest first *)
           Bounded_ring.push tiers.(ti).t_points p
       | _ -> bad "unknown line")

let equal a b = render a = render b

(* ---- sparklines (dsvc dash) ----

   Pure string rendering, kept here so the TUI's one interesting
   computation is unit-testable without a terminal. *)

let spark_blocks = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                      "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let buf = Buffer.create (List.length values * 3) in
      List.iter
        (fun v ->
          let i =
            if hi <= lo then 3
            else
              let f = (v -. lo) /. (hi -. lo) in
              int_of_float (f *. 7.0 +. 0.5)
          in
          Buffer.add_string buf spark_blocks.(max 0 (min 7 i)))
        values;
      Buffer.contents buf
