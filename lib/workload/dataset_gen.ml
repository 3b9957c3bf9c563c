module Csv = Versioning_delta.Csv
module Line_diff = Versioning_delta.Line_diff
module Cell_diff = Versioning_delta.Cell_diff
module Delta = Versioning_delta.Delta
module Aux_graph = Versioning_core.Aux_graph

type delta_mode = Line_directed | Line_compressed | Cell_directed | Two_way

type params = {
  initial_rows : int;
  initial_cols : int;
  edit_intensity : float;
  max_hops : int;
  reveal_cap : int;
  mode : delta_mode;
}

let default_params =
  {
    initial_rows = 120;
    initial_cols = 8;
    edit_intensity = 0.05;
    max_hops = 4;
    reveal_cap = 24;
    mode = Line_directed;
  }

type t = {
  name : string;
  history : History_gen.t;
  contents : string array;
  aux : Aux_graph.t;
  n_deltas : int;
  version_sizes : float array;
  delta_sizes : float array;
}

let io_model = Delta.io_cpu_model

(* ⟨Δ, Φ⟩ of one directed delta from version [u] to [v]. The line
   modes price every pair from [lines], each version's lines interned
   once. *)
let delta_costs mode ~contents ~lines u v =
  let a = contents.(u) and b = contents.(v) in
  match mode with
  | Line_directed ->
      let s = float_of_int (Line_diff.size (Line_diff.diff_in (Lazy.force lines) u v)) in
      (s, s)
  | Line_compressed ->
      let d = Delta.line_delta ~compress:true a b in
      ( Delta.storage_cost d,
        Delta.recreation_cost io_model d ~output_bytes:(String.length b) )
  | Cell_directed ->
      let s =
        float_of_int (Cell_diff.size (Cell_diff.diff (Csv.parse a) (Csv.parse b)))
      in
      (s, s)
  | Two_way ->
      let lines = Lazy.force lines in
      let d = Line_diff.diff_in lines u v in
      let s = float_of_int (Line_diff.symmetric_size lines u d) in
      (s, s)

let materialization_costs mode content =
  let raw = float_of_int (String.length content) in
  match mode with
  | Line_directed | Cell_directed | Two_way -> (raw, raw)
  | Line_compressed ->
      let d = Delta.materialize ~compress:true content in
      ( Delta.storage_cost d,
        Delta.recreation_cost io_model d ~output_bytes:(String.length content) )

let build_aux ~contents ~mode ~pairs =
  let n = Array.length contents - 1 in
  let aux = Aux_graph.create ~n_versions:n in
  for v = 1 to n do
    let delta, phi = materialization_costs mode contents.(v) in
    Aux_graph.add_materialization aux ~version:v ~delta ~phi
  done;
  let lines = lazy (Line_diff.intern contents) in
  let n_deltas = ref 0 in
  let delta_sizes = ref [] in
  List.iter
    (fun (u, v) ->
      let delta, phi = delta_costs mode ~contents ~lines u v in
      Aux_graph.add_delta aux ~src:u ~dst:v ~delta ~phi;
      incr n_deltas;
      delta_sizes := delta :: !delta_sizes;
      if mode = Two_way then begin
        (* The symmetric payload serves both directions. *)
        Aux_graph.add_delta aux ~src:v ~dst:u ~delta ~phi;
        incr n_deltas;
        delta_sizes := delta :: !delta_sizes
      end)
    pairs;
  (aux, !n_deltas, Array.of_list !delta_sizes)

let generate ?name history params rng =
  let n = history.History_gen.n_versions in
  let tg = Table_gen.create rng in
  let tables = Array.make (n + 1) [||] in
  let contents = Array.make (n + 1) "" in
  for v = 1 to n do
    let table =
      match History_gen.first_parent history v with
      | None ->
          Table_gen.fresh_table tg ~rows:params.initial_rows
            ~cols:params.initial_cols
      | Some p ->
          let base = tables.(p) in
          let edits =
            Table_gen.random_edits tg ~table:base
              ~intensity:params.edit_intensity
          in
          Table_gen.apply tg base edits
    in
    tables.(v) <- table;
    contents.(v) <- Csv.print table
  done;
  let pairs =
    if params.mode = Two_way then
      (* Keep one orientation; build_aux mirrors it. *)
      List.filter
        (fun (u, v) -> u < v)
        (History_gen.undirected_hop_pairs history ~max_hops:params.max_hops
           ~cap:params.reveal_cap)
    else
      History_gen.undirected_hop_pairs history ~max_hops:params.max_hops
        ~cap:params.reveal_cap
  in
  let aux, n_deltas, delta_sizes = build_aux ~contents ~mode:params.mode ~pairs in
  let version_sizes =
    Array.init (n + 1) (fun v ->
        if v = 0 then 0.0 else float_of_int (String.length contents.(v)))
  in
  {
    name = Option.value name ~default:"synthetic";
    history;
    contents;
    aux;
    n_deltas;
    version_sizes;
    delta_sizes;
  }

let avg_version_size t =
  let n = Array.length t.version_sizes - 1 in
  if n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for v = 1 to n do
      sum := !sum +. t.version_sizes.(v)
    done;
    !sum /. float_of_int n
  end

let all_pairs_aux ~contents ~mode =
  let n = Array.length contents - 1 in
  let pairs = ref [] in
  for u = 1 to n do
    for v = 1 to n do
      if u <> v && (mode <> Two_way || u < v) then pairs := (u, v) :: !pairs
    done
  done;
  let aux, _, _ = build_aux ~contents ~mode ~pairs:!pairs in
  aux
