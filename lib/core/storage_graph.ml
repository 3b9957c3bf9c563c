type t = {
  parents : int array;  (* index 1..n; parents.(0) unused (-1) *)
  weights : Aux_graph.weight array;  (* weight of edge into v *)
  child_lists : int list array;  (* index 0..n, ascending children *)
  recreation : float array;  (* index 0..n, R0 = 0 *)
}

let n_versions t = Array.length t.parents - 1

let build_internal n (choices : (int * int * Aux_graph.weight) array) =
  (* choices.(v-1) = (parent, v, weight); validate arborescence. *)
  let parents = Array.make (n + 1) (-1) in
  let weights =
    Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight)
  in
  let seen = Array.make (n + 1) false in
  let error = ref None in
  Array.iter
    (fun (p, v, w) ->
      if Option.is_none !error then begin
        if v < 1 || v > n then
          error := Some (Printf.sprintf "version %d out of range" v)
        else if seen.(v) then
          error := Some (Printf.sprintf "version %d has two parents" v)
        else if p < 0 || p > n then
          error := Some (Printf.sprintf "parent %d out of range" p)
        else if p = v then
          error := Some (Printf.sprintf "version %d is its own parent" v)
        else begin
          seen.(v) <- true;
          parents.(v) <- p;
          weights.(v) <- w
        end
      end)
    choices;
  (match !error with
  | Some _ -> ()
  | None ->
      for v = 1 to n do
        if not seen.(v) then
          error := Some (Printf.sprintf "version %d has no parent" v)
      done);
  match !error with
  | Some e -> Error e
  | None ->
      (* Cycle check and recreation costs in one pass: walk up from each
         unvisited vertex, marking the path in progress, to a finished
         vertex (the root 0 is one); reaching an in-progress vertex is a
         cycle. Then each path vertex, top down, gets its parent's cost
         plus its own Φ. Iterative, for very deep chains. *)
      let white = 0 and gray = 1 and black = 2 in
      let state = Array.make (n + 1) white in
      state.(0) <- black;
      let recreation = Array.make (n + 1) 0.0 in
      let path = Array.make (n + 1) 0 in
      let acyclic = ref true in
      for start = 1 to n do
        if !acyclic && state.(start) = white then begin
          let len = ref 0 and v = ref start in
          while state.(!v) = white do
            state.(!v) <- gray;
            path.(!len) <- !v;
            incr len;
            v := parents.(!v)
          done;
          if state.(!v) = gray then acyclic := false
          else
            for i = !len - 1 downto 0 do
              let x = path.(i) in
              recreation.(x) <- recreation.(parents.(x)) +. weights.(x).phi;
              state.(x) <- black
            done
        end
      done;
      if not !acyclic then Error "parent choices contain a cycle"
      else begin
        let child_lists = Array.make (n + 1) [] in
        for v = n downto 1 do
          child_lists.(parents.(v)) <- v :: child_lists.(parents.(v))
        done;
        Ok { parents; weights; child_lists; recreation }
      end

let of_parent_edges ~n choices =
  if List.length choices <> n then
    Error
      (Printf.sprintf "expected %d parent choices, got %d" n
         (List.length choices))
  else build_internal n (Array.of_list choices)

let of_parents ?(jobs = Versioning_util.Pool.default_jobs ()) g ~parents =
  let n = Aux_graph.n_versions g in
  let lookup (p, v) =
    if v < 1 || v > n then
      Error (Printf.sprintf "version %d out of range" v)
    else if p = 0 then
      match Aux_graph.materialization g v with
      | Some w -> Ok (0, v, w)
      | None ->
          Error (Printf.sprintf "materialization of %d is not revealed" v)
    else if p < 1 || p > n then
      Error (Printf.sprintf "parent %d out of range" p)
    else
      match Aux_graph.delta g ~src:p ~dst:v with
      | Some w -> Ok (p, v, w)
      | None -> Error (Printf.sprintf "delta %d -> %d is not revealed" p v)
  in
  (* Each lookup is an independent read of the (frozen) aux graph, so
     they run on the domain pool; the first error in list order wins,
     exactly as a sequential scan would report. *)
  let resolved =
    Versioning_util.Pool.parallel_map ~jobs lookup (Array.of_list parents)
  in
  let rec collect i acc =
    if i = Array.length resolved then of_parent_edges ~n (List.rev acc)
    else
      match resolved.(i) with
      | Ok c -> collect (i + 1) (c :: acc)
      | Error e -> Error e
  in
  collect 0 []

let parent t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.parent";
  t.parents.(v)

let edge_weight t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.edge_weight";
  t.weights.(v)

let is_materialized t v = parent t v = 0

let materialized_versions t =
  let n = n_versions t in
  let rec go v acc =
    if v < 1 then acc else go (v - 1) (if t.parents.(v) = 0 then v :: acc else acc)
  in
  go n []

let children t v =
  if v < 0 || v > n_versions t then invalid_arg "Storage_graph.children";
  t.child_lists.(v)

let depth t v =
  let rec go v acc = if v = 0 then acc else go t.parents.(v) (acc + 1) in
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.depth";
  go t.parents.(v) 0

let storage_cost t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. t.weights.(v).delta
  done;
  !acc

let recreation_costs t = Array.copy t.recreation

let recreation_cost t v =
  if v < 1 || v > n_versions t then invalid_arg "Storage_graph.recreation_cost";
  t.recreation.(v)

let sum_recreation t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. t.recreation.(v)
  done;
  !acc

let max_recreation t =
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    if t.recreation.(v) > !acc then acc := t.recreation.(v)
  done;
  !acc

let weighted_recreation t ~freqs =
  if Array.length freqs < n_versions t + 1 then
    invalid_arg "Storage_graph.weighted_recreation: freqs too short";
  let acc = ref 0.0 in
  for v = 1 to n_versions t do
    acc := !acc +. (freqs.(v) *. t.recreation.(v))
  done;
  !acc

let to_parents t =
  List.init (n_versions t) (fun i -> (t.parents.(i + 1), i + 1))

let pp ppf t =
  Format.fprintf ppf
    "@[<v>storage graph: %d versions, %d materialized@,\
     C = %.1f, sum R = %.1f, max R = %.1f@]"
    (n_versions t)
    (List.length (materialized_versions t))
    (storage_cost t) (sum_recreation t) (max_recreation t)
