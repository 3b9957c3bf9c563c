(* Pure helpers of the benchmark: latency percentiles and the traced
   run's time accounting. Kept free of I/O so the benchmark's own test
   can check them on synthetic inputs. *)

(* ---- percentiles ---- *)

(* Nearest-rank percentile of an ascending array, [q] in (0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Accounting.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Capped at p99 so that a faster program, completing more operations
   in the same run, keeps reporting the same percentile. *)
let tail_candidates =
  [ ("p99", 0.99); ("p95", 0.95); ("p90", 0.9); ("p75", 0.75) ]

(* The highest percentile with at least ten samples above its rank —
   the tail a sample of [n] supports. Falls back to the median, which
   is always reported anyway, so callers never read an unsupported
   extreme. *)
let tail_label n =
  match
    List.find_opt
      (fun (_, q) ->
        n - int_of_float (Float.ceil (q *. float_of_int n)) >= 10)
      tail_candidates
  with
  | Some (label, q) -> (label, q)
  | None -> ("p50", 0.5)

(* ---- span self times ---- *)

type span = { id : int; parent : int option; name : string; dur : float }

(* Self time by span name over every span whose tree is rooted at a
   span accepted by [is_root]: a span's duration minus the durations
   of its direct children. A parent id absent from the list makes the
   span a root. Names come back sorted. *)
let self_times ~is_root spans =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p when Hashtbl.mem by_id p ->
          let prev = Option.value (Hashtbl.find_opt child_time p) ~default:0.0 in
          Hashtbl.replace child_time p (prev +. s.dur)
      | _ -> ())
    spans;
  let root_memo = Hashtbl.create 1024 in
  let rec root s =
    match Hashtbl.find_opt root_memo s.id with
    | Some r -> r
    | None ->
        let r =
          match s.parent with
          | Some p -> (
              match Hashtbl.find_opt by_id p with
              | Some ps -> root ps
              | None -> s.name)
          | None -> s.name
        in
        Hashtbl.replace root_memo s.id r;
        r
  in
  let totals = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if is_root (root s) then begin
        let self =
          s.dur -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
        in
        let prev = Option.value (Hashtbl.find_opt totals s.name) ~default:0.0 in
        Hashtbl.replace totals s.name (prev +. self)
      end)
    spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

(* ---- accounting ---- *)

type t = {
  total : float;  (** traced end-to-end seconds *)
  layers : (string * float) list;  (** seconds attributed to each layer *)
  unattributed : float;  (** [total] minus every layer *)
}

let make ~total layers =
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 layers in
  { total; layers; unattributed = total -. attributed }

(* Each layer's share of the total, then the unattributed share. *)
let shares t =
  let share s = if t.total > 0.0 then s /. t.total else 0.0 in
  List.map (fun (name, s) -> (name, share s)) t.layers
  @ [ ("unattributed", share t.unattributed) ]

(* The stated tolerance: layers plus unattributed must reproduce the
   traced total, and no layer (nor the remainder) may be negative, by
   more than [eps] of the total. A negative layer means two layers
   claimed the same interval. *)
let default_eps = 0.01

let check ?(eps = default_eps) t =
  let slack = eps *. t.total in
  let problems =
    List.filter_map
      (fun (name, s) ->
        if s < -.slack then
          Some (Printf.sprintf "layer %s is negative (%.6f s)" name s)
        else None)
      (t.layers @ [ ("unattributed", t.unattributed) ])
  in
  let sum_layers =
    List.fold_left (fun acc (_, s) -> acc +. s) t.unattributed t.layers
  in
  let problems =
    if Float.abs (sum_layers -. t.total) > slack then
      Printf.sprintf "layers sum to %.6f s, traced total is %.6f s" sum_layers
        t.total
      :: problems
    else problems
  in
  let share_sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (shares t) in
  let problems =
    if t.total <= 0.0 then "traced total is not positive" :: problems
    else if Float.abs (share_sum -. 1.0) > eps then
      Printf.sprintf "shares sum to %.6f" share_sum :: problems
    else problems
  in
  if problems = [] then Ok () else Error problems
