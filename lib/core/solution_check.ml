type report = {
  n_versions : int;
  storage : float;
  sum_recreation : float;
  max_recreation : float;
}

(* Sums of per-edge costs accumulate rounding differently depending on
   association order, so equality is up to a relative tolerance. *)
let close a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= 1e-6 *. scale

let weight_eq (a : Aux_graph.weight) (b : Aux_graph.weight) =
  close a.delta b.delta && close a.phi b.phi

(* All revealed weights per edge — [Aux_graph.delta] only reports the
   first-revealed one, but solvers may legitimately pick any parallel
   reveal, so the check accepts a match against any of them. *)
let revealed_table g =
  let tbl = Hashtbl.create 256 in
  Versioning_graph.Digraph.iter_edges (Aux_graph.graph g) (fun e ->
      Hashtbl.add tbl (e.src, e.dst) e.label);
  tbl

let check g sg =
  let errors = ref [] in
  let report = ref None in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let n = Aux_graph.n_versions g in
  let sn = Storage_graph.n_versions sg in
  if sn <> n then
    error "solution covers %d versions but the graph has %d" sn n;
  let m = min n sn in
  (* Spanning arborescence: [to_parents] is the solution [P]; walk
     every root path with a step budget so a cycle cannot loop us. *)
  let parents = Array.make (m + 1) (-1) in
  List.iter
    (fun (p, v) ->
      if v < 1 || v > m then error "parent choice for out-of-range version %d" v
      else if parents.(v) <> -1 then error "version %d chosen twice" v
      else parents.(v) <- p)
    (Storage_graph.to_parents sg);
  for v = 1 to m do
    if parents.(v) = -1 then error "version %d has no parent choice" v
    else if parents.(v) < 0 || parents.(v) > m then
      error "version %d has out-of-range parent %d" v parents.(v)
  done;
  if !errors = [] then begin
    for v = 1 to m do
      let steps = ref 0 and u = ref v in
      while !u <> 0 && !steps <= m do
        incr steps;
        u := parents.(!u)
      done;
      if !u <> 0 then
        error "version %d's root path does not reach V0 (cycle)" v
    done
  end;
  if !errors = [] then begin
    (* Every chosen edge must be a revealed matrix entry with the
       weight the solution claims. Delta edges may be used in either
       direction: the symmetric scenarios treat ⟨i, j⟩ as undirected. *)
    let revealed = revealed_table g in
    for v = 1 to m do
      let p = parents.(v) in
      let w = Storage_graph.edge_weight sg v in
      let candidates =
        if p = 0 then Option.to_list (Aux_graph.materialization g v)
        else
          Hashtbl.find_all revealed (p, v) @ Hashtbl.find_all revealed (v, p)
      in
      if candidates = [] then
        error "edge %d -> %d is not revealed in the graph" p v
      else if not (List.exists (weight_eq w) candidates) then
        error
          "edge %d -> %d weight <%.9g, %.9g> matches no revealed entry" p v
          w.Aux_graph.delta w.Aux_graph.phi
    done;
    (* Lemma 1 accounting, recomputed from the parent choices alone. *)
    let storage = ref 0.0 in
    let recreation = Array.make (m + 1) Float.nan in
    recreation.(0) <- 0.0;
    let rec recreation_of v =
      if Float.is_nan recreation.(v) then
        recreation.(v) <-
          recreation_of parents.(v)
          +. (Storage_graph.edge_weight sg v).Aux_graph.phi;
      recreation.(v)
    in
    let sum = ref 0.0 and maxr = ref 0.0 in
    for v = 1 to m do
      storage := !storage +. (Storage_graph.edge_weight sg v).Aux_graph.delta;
      let r = recreation_of v in
      sum := !sum +. r;
      if r > !maxr then maxr := r;
      if not (close r (Storage_graph.recreation_cost sg v)) then
        error "R%d: cached %.9g, recomputed %.9g" v
          (Storage_graph.recreation_cost sg v)
          r
    done;
    if not (close !storage (Storage_graph.storage_cost sg)) then
      error "storage cost: cached %.9g, recomputed %.9g"
        (Storage_graph.storage_cost sg)
        !storage;
    if not (close !sum (Storage_graph.sum_recreation sg)) then
      error "sum recreation: cached %.9g, recomputed %.9g"
        (Storage_graph.sum_recreation sg)
        !sum;
    if not (close !maxr (Storage_graph.max_recreation sg)) then
      error "max recreation: cached %.9g, recomputed %.9g"
        (Storage_graph.max_recreation sg)
        !maxr;
    if !errors = [] then
      report :=
        Some
          {
            n_versions = m;
            storage = !storage;
            sum_recreation = !sum;
            max_recreation = !maxr;
          }
  end;
  match (!errors, !report) with
  | [], Some r -> Ok r
  | [], None -> Error [ "internal: verification did not complete" ]
  | es, _ -> Error (List.rev es)
