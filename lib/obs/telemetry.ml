(* Per-version workload telemetry (DESIGN.md §15).

   Counting is unconditional but clock-free: the decayed frequency is
   indexed by the ledger's own event counter, so two runs replaying
   the same accesses produce byte-identical ledgers. Everything that
   needs a clock goes through [clock], which yields nothing while the
   Obs gate is off.

   No file I/O here (lib/obs never opens files — lint.toml R1): the
   ledger renders to and parses from strings, and [Repo] persists
   them through Fsutil. *)

type entry = {
  mutable checkouts : int;
  mutable cache_hits : int;
  mutable freq : float;
  mutable freq_at : int;
  mutable observations : int;
  mutable seconds : float;
  mutable bytes : float;
  mutable exemplar : string;
}

type sample = {
  version : int;
  s_seconds : float;
  s_bytes : float;
  s_predicted : float;
}

type t = {
  decay : float;
  max_entries : int;
  mutable events : int;
  table : (int, entry) Hashtbl.t;
  recent : sample Bounded_ring.t;
}

let default_decay = 0.995
let default_max_entries = 4096
let default_ring = 512

let create ?(decay = default_decay) ?(max_entries = default_max_entries)
    ?(ring = default_ring) () =
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Telemetry.create: decay must be in (0, 1]";
  if max_entries < 1 then
    invalid_arg "Telemetry.create: max_entries must be positive";
  if ring < 0 then invalid_arg "Telemetry.create: ring must be non-negative";
  {
    decay;
    max_entries;
    events = 0;
    table = Hashtbl.create 64;
    recent = Bounded_ring.create ring;
  }

let events t = t.events
let decay t = t.decay
let is_empty t = t.events = 0 && Hashtbl.length t.table = 0
let entry t v = Hashtbl.find_opt t.table v

let entries t =
  Hashtbl.fold (fun v e acc -> (v, e) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let samples t = Bounded_ring.to_list t.recent

(* The decayed weight of [e] as of event index [at]. *)
let settled t e ~at = e.freq *. (t.decay ** float_of_int (at - e.freq_at))

let freq_of t v =
  match Hashtbl.find_opt t.table v with
  | None -> 0.0
  | Some e -> settled t e ~at:t.events

let hot t ~k =
  entries t
  |> List.sort (fun (va, a) (vb, b) ->
         match compare (settled t b ~at:t.events) (settled t a ~at:t.events) with
         | 0 -> compare va vb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

(* Evict the coldest entry (lowest settled frequency, ties to the
   highest id) when a new version would push the table past its
   bound. O(entries), paid only at the bound. *)
let evict_coldest t =
  let victim =
    Hashtbl.fold
      (fun v e acc ->
        let f = settled t e ~at:t.events in
        match acc with
        | Some (_, bf) when bf < f || (bf = f && fst (Option.get acc) > v) ->
            acc
        | _ -> Some (v, f))
      t.table None
  in
  match victim with Some (v, _) -> Hashtbl.remove t.table v | None -> ()

let bump_checkout t v ~cached =
  t.events <- t.events + 1;
  match Hashtbl.find_opt t.table v with
  | Some e ->
      e.checkouts <- e.checkouts + 1;
      if cached then e.cache_hits <- e.cache_hits + 1;
      e.freq <- settled t e ~at:t.events +. 1.0;
      e.freq_at <- t.events
  | None ->
      if Hashtbl.length t.table >= t.max_entries then evict_coldest t;
      Hashtbl.replace t.table v
        {
          checkouts = 1;
          cache_hits = (if cached then 1 else 0);
          freq = 1.0;
          freq_at = t.events;
          observations = 0;
          seconds = 0.0;
          bytes = 0.0;
          exemplar = "";
        }

let clock () = if Obs.enabled () then Some (Unix.gettimeofday ()) else None

(* Relative calibration error |observed − predicted| / predicted. *)
let calibration_buckets = [| 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.0; 4.0 |]

let record_recreation t v ~seconds ~bytes ~predicted ?(trace = "") () =
  (match Hashtbl.find_opt t.table v with
  | Some e ->
      e.observations <- e.observations + 1;
      e.seconds <- e.seconds +. seconds;
      e.bytes <- e.bytes +. bytes;
      if trace > e.exemplar then e.exemplar <- trace
  | None -> ());
  Bounded_ring.push t.recent
    { version = v; s_seconds = seconds; s_bytes = bytes;
      s_predicted = predicted };
  Metrics.observe "dsvc_obs_recreation_seconds" seconds
    ~help:"Observed checkout recreation wall-clock";
  Metrics.observe "dsvc_obs_recreation_bytes" bytes
    ~buckets:Metrics.size_buckets
    ~help:"Observed bytes materialized along the delta chain";
  if predicted > 0.0 then
    Metrics.observe "dsvc_obs_calibration_error"
      (Float.abs (bytes -. predicted) /. predicted)
      ~buckets:calibration_buckets
      ~help:"Relative error of observed recreation bytes vs the plan's \u{03a6}"

let drift t ~costs =
  let n = List.length costs in
  if n = 0 || is_empty t then 0.0
  else begin
    let weights = List.map (fun (v, _) -> freq_of t v) costs in
    let wsum = List.fold_left ( +. ) 0.0 weights in
    let phisum = List.fold_left (fun acc (_, phi) -> acc +. phi) 0.0 costs in
    if wsum <= 0.0 || phisum <= 0.0 then 0.0
    else begin
      let uniform = 1.0 /. float_of_int n in
      let num =
        List.fold_left2
          (fun acc (_, phi) w ->
            acc +. (Float.abs ((w /. wsum) -. uniform) *. phi))
          0.0 costs weights
      in
      num /. (uniform *. phisum)
    end
  end

(* ---- merge ---- *)

let copy_entry e =
  {
    checkouts = e.checkouts;
    cache_hits = e.cache_hits;
    freq = e.freq;
    freq_at = e.freq_at;
    observations = e.observations;
    seconds = e.seconds;
    bytes = e.bytes;
    exemplar = e.exemplar;
  }

(* Commutative union. Each side's frequency is first settled to its
   own event horizon; the merged weight is their sum, stamped at the
   merged event count — so merge (a, b) = merge (b, a) exactly. *)
let merge a b =
  let t =
    create ~decay:(Float.max a.decay b.decay)
      ~max_entries:(max a.max_entries b.max_entries)
      ~ring:
        (max (Bounded_ring.capacity a.recent) (Bounded_ring.capacity b.recent))
      ()
  in
  t.events <- a.events + b.events;
  let add side e0 =
    let settled_freq = settled side e0 ~at:side.events in
    fun acc ->
      match acc with
      | None ->
          let e = copy_entry e0 in
          e.freq <- settled_freq;
          e.freq_at <- t.events;
          Some e
      | Some e ->
          e.checkouts <- e.checkouts + e0.checkouts;
          e.cache_hits <- e.cache_hits + e0.cache_hits;
          e.freq <- e.freq +. settled_freq;
          e.observations <- e.observations + e0.observations;
          e.seconds <- e.seconds +. e0.seconds;
          e.bytes <- e.bytes +. e0.bytes;
          if e0.exemplar > e.exemplar then e.exemplar <- e0.exemplar;
          Some e
  in
  let fold side =
    List.iter
      (fun (v, e) ->
        match add side e (Hashtbl.find_opt t.table v) with
        | Some e -> Hashtbl.replace t.table v e
        | None -> ())
      (entries side)
  in
  fold a;
  fold b;
  while Hashtbl.length t.table > t.max_entries do
    evict_coldest t
  done;
  (* Deterministic sample union: samples carry no wall-clock order
     across ledgers, so push the union in descending order and the
     ring keeps the smallest, the very smallest as its newest. *)
  List.sort (fun x y -> compare y x) (samples a @ samples b)
  |> List.iter (Bounded_ring.push t.recent);
  t

(* ---- rendering / parsing ----

   Line format ({!Line_file}), space-delimited like the repository
   metadata:

     telemetry 1
     decay <%h> <max_entries> <ring>
     events <int>
     v <id> <checkouts> <cache_hits> <freq %h> <freq_at> <obs> <sec %h> <bytes %h> <exemplar|->
     s <version> <seconds %h> <bytes %h> <predicted %h>
     end

   Floats are hex so parse ∘ render is the identity. *)

let hex = Line_file.hex

(* Exemplars are trace ids (hex), but a hostile value must not corrupt
   the line format. *)
let clean_token s =
  let ok = String.for_all (fun c -> c > ' ' && c <> '\x7f') s in
  if s <> "" && ok then s else "-"

let render t =
  Line_file.render ~magic:"telemetry"
    ((Printf.sprintf "decay %s %d %d" (hex t.decay) t.max_entries
        (Bounded_ring.capacity t.recent)
     :: Printf.sprintf "events %d" t.events
     :: List.map
          (fun (v, e) ->
            Printf.sprintf "v %d %d %d %s %d %d %s %s %s" v e.checkouts
              e.cache_hits (hex e.freq) e.freq_at e.observations
              (hex e.seconds) (hex e.bytes) (clean_token e.exemplar))
          (entries t))
    @ List.map
        (fun s ->
          Printf.sprintf "s %d %s %s %s" s.version (hex s.s_seconds)
            (hex s.s_bytes) (hex s.s_predicted))
        (samples t))

let parse content =
  let open Line_file in
  let t = ref (create ()) in
  Result.map (fun () -> !t)
  @@ parse ~magic:"telemetry" ~what:"telemetry ledger" content (function
      | [ "decay"; d; m; r ] ->
          let d = float d and m = int m and r = int r in
          if not (d > 0.0 && d <= 1.0 && m >= 1 && r >= 0) then
            bad "bad decay line";
          t :=
            { (create ~decay:d ~max_entries:m ~ring:r ()) with
              events = !t.events }
      | [ "events"; n ] ->
          let n = int n in
          if n < 0 then bad "bad events line";
          !t.events <- n
      | [ "v"; v; co; ch; fr; fa; ob; se; by; ex ] ->
          Hashtbl.replace !t.table (int v)
            {
              checkouts = int co;
              cache_hits = int ch;
              freq = float fr;
              freq_at = int fa;
              observations = int ob;
              seconds = float se;
              bytes = float by;
              exemplar = (if ex = "-" then "" else ex);
            }
      | [ "s"; v; se; by; pr ] ->
          Bounded_ring.push !t.recent
            { version = int v; s_seconds = float se; s_bytes = float by;
              s_predicted = float pr }
      | _ -> bad "unknown line")

let equal a b = render a = render b

(* ---- metric export ---- *)

let export ?registry t ~repo ~drift:d =
  let labels = [ ("repo", repo) ] in
  let totals =
    Hashtbl.fold
      (fun _ e (co, ch) -> (co + e.checkouts, ch + e.cache_hits))
      t.table (0, 0)
  in
  let checkouts, hits = totals in
  Metrics.gauge ?registry "dsvc_obs_ledger_versions" ~labels
    ~help:"Versions the access ledger tracks"
    (float_of_int (Hashtbl.length t.table));
  Metrics.gauge ?registry "dsvc_obs_ledger_events" ~labels
    ~help:"Accesses the ledger has counted"
    (float_of_int t.events);
  Metrics.gauge ?registry "dsvc_obs_ledger_checkouts" ~labels
    ~help:"Checkouts recorded in the ledger"
    (float_of_int checkouts);
  if checkouts > 0 then
    Metrics.gauge ?registry "dsvc_obs_cache_hit_ratio" ~labels
      ~help:"Whole-checkout cache hits / checkouts, from the ledger"
      (float_of_int hits /. float_of_int checkouts);
  Metrics.gauge ?registry "dsvc_store_drift_score" ~labels
    ~help:
      "Cost-weighted total-variation distance between observed and \
       uniform access distributions"
    d
