module Heap = Versioning_util.Binary_heap

(* Mutable tree state for the greedy loop: parent/weight per version,
   children lists, exact recreation costs, and subtree weights (node
   counts, or frequency sums in the workload-aware variant). *)

type state = {
  n : int;
  parent : int array;
  weight : Aux_graph.weight array;
  children : int list array;
  recreation : float array;
  freq : float array;  (* all-ones when unweighted *)
  subtree : float array;  (* Σ freq over the subtree; unused at the root 0 *)
}

(* [freq v] plus the children's subtree weights, added in reverse list
   order: the order a depth-first refresh of the whole tree adds them,
   so weighted scores do not depend on which vertices were updated. *)
let recompute_subtree st v =
  st.subtree.(v) <-
    List.fold_right (fun c acc -> acc +. st.subtree.(c)) st.children.(v) st.freq.(v)

let init_state g base ~freqs =
  let n = Aux_graph.n_versions g in
  let parent = Array.make (n + 1) (-1) in
  let weight =
    Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight)
  in
  let children = Array.make (n + 1) [] in
  for v = 1 to n do
    parent.(v) <- Storage_graph.parent base v;
    weight.(v) <- Storage_graph.edge_weight base v;
    children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let recreation = Storage_graph.recreation_costs base in
  let freq =
    match freqs with
    | Some f ->
        if Array.length f < n + 1 then invalid_arg "Lmg: freqs too short";
        Array.copy f
    | None -> Array.make (n + 1) 1.0
  in
  let st =
    { n; parent; weight; children; recreation; freq; subtree = Array.make (n + 1) 0.0 }
  in
  (* A breadth-first order from the root 0 (the base spans every
     version), walked backwards: each vertex after its descendants. *)
  let order = Array.make (n + 1) 0 and len = ref 1 in
  for i = 0 to n do
    List.iter
      (fun c ->
        order.(!len) <- c;
        incr len)
      children.(order.(i))
  done;
  for i = n downto 1 do
    recompute_subtree st order.(i)
  done;
  st

(* [x] lies in the subtree of [anc]: walk x's parent chain. *)
let is_descendant st ~anc x =
  let rec up x = x = anc || (x > 0 && up st.parent.(x)) in
  up x

(* Apply the swap: re-parent [v] to [u] with weight [w], shifting the
   recreation cost of every vertex in v's subtree by the same amount.
   Returns that subtree. *)
let apply_swap st ~u ~v ~(w : Aux_graph.weight) =
  let shift = st.recreation.(u) +. w.phi -. st.recreation.(v) in
  let old_parent = st.parent.(v) in
  st.children.(old_parent) <- List.filter (fun c -> c <> v) st.children.(old_parent);
  st.parent.(v) <- u;
  st.weight.(v) <- w;
  st.children.(u) <- v :: st.children.(u);
  let moved = ref [] in
  let stack = ref [ v ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
        stack := rest;
        moved := x :: !moved;
        st.recreation.(x) <- st.recreation.(x) +. shift;
        List.iter (fun c -> stack := c :: !stack) st.children.(x)
  done;
  !moved

let to_storage_graph st =
  let choices =
    List.init st.n (fun i ->
        let v = i + 1 in
        (st.parent.(v), v, st.weight.(v)))
  in
  match Storage_graph.of_parent_edges ~n:st.n choices with
  | Ok sg -> sg
  | Error e -> invalid_arg ("Lmg: internal tree corrupt: " ^ e)

(* Each round applies the live candidate swap of largest ρ that fits
   the budget and keeps the tree a tree; among equal ρ, the one of
   largest v. A heap holds the live candidates of positive gain keyed
   by (−ρ, n − v). A swap v→u changes only three kinds of score: the
   subtree weights on the paths from v's old parent and from u to the
   root, the recreation costs in v's subtree, and the target costs of
   the candidates whose SPT parent lies in v's subtree. Only those are
   re-scored. Validity is checked on pop: a candidate whose SPT parent
   lies below it waits out the round, and one over budget waits until
   a swap lowers storage, since its own cost is fixed while it lives. *)
let solve g ~base ~spt ~budget ?freqs () =
  Solver_obs.timed ~algo:"lmg" @@ fun () ->
  let st = init_state g base ~freqs in
  let n = st.n in
  let storage = ref (Storage_graph.storage_cost base) in
  (* Candidate pool ξ: SPT in-edges that differ from the current tree,
     one per version, consumed when used. *)
  let source = Array.make (n + 1) (-1) in
  let cand_w = Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight) in
  let cost = Array.make (n + 1) 0.0 in
  let live = Array.make (n + 1) false in
  let live_count = ref 0 in
  let by_source = Array.make (n + 1) [] in
  for v = 1 to n do
    let u = Storage_graph.parent spt v in
    if u <> st.parent.(v) then begin
      let w = Storage_graph.edge_weight spt v in
      source.(v) <- u;
      cand_w.(v) <- w;
      cost.(v) <- w.delta -. st.weight.(v).delta;
      live.(v) <- true;
      incr live_count;
      by_source.(u) <- v :: by_source.(u)
    end
  done;
  let heap = Heap.create ~capacity:n in
  (* Live candidates kept out of the heap: [deferred] until the round
     ends, [parked] until storage falls. *)
  let held = Array.make (n + 1) false in
  let deferred = ref [] and parked = ref [] in
  let rescore v =
    if live.(v) then begin
      let u = source.(v) in
      let gain =
        st.subtree.(v) *. (st.recreation.(v) -. (st.recreation.(u) +. cand_w.(v).phi))
      in
      if not (gain > 0.0) then Heap.remove heap (n - v)
      else if not held.(v) then
        let rho = if cost.(v) <= 0.0 then infinity else gain /. cost.(v) in
        Heap.insert heap (n - v) (-.rho)
    end
  in
  let hold l v =
    held.(v) <- true;
    l := v :: !l
  in
  let release l =
    List.iter
      (fun v ->
        held.(v) <- false;
        rescore v)
      !l;
    l := []
  in
  for v = 1 to n do
    rescore v
  done;
  let considered = ref 0 in
  let rec pick () =
    if Heap.is_empty heap then None
    else begin
      let v = n - fst (Heap.pop_min heap) in
      incr considered;
      if not (!storage +. cost.(v) <= budget) then (hold parked v; pick ())
      else if is_descendant st ~anc:v source.(v) then (hold deferred v; pick ())
      else Some v
    end
  in
  (* Recompute the subtree weights from [v] to the root; re-score the
     candidates whose weight changed. *)
  let rec up v =
    if v > 0 then begin
      let before = st.subtree.(v) in
      recompute_subtree st v;
      if not (Float.equal before st.subtree.(v)) then rescore v;
      up st.parent.(v)
    end
  in
  let rounds = ref 0 in
  let accepted = ref 0 in
  let continue = ref true in
  while !continue && !live_count > 0 do
    incr rounds;
    match pick () with
    | None -> continue := false
    | Some v ->
        incr accepted;
        live.(v) <- false;
        decr live_count;
        let u = source.(v) and old_parent = st.parent.(v) in
        let moved = apply_swap st ~u ~v ~w:cand_w.(v) in
        storage := !storage +. cost.(v);
        (* Where the two paths meet, the second walk recomputes over
           both updated sides. *)
        up u;
        up old_parent;
        List.iter
          (fun x ->
            rescore x;
            List.iter rescore by_source.(x))
          moved;
        release deferred;
        if cost.(v) < 0.0 then release parked
  done;
  Solver_obs.count ~algo:"lmg" "dsvc_solver_iterations_total" !rounds
    ~help:"Main-loop iterations (heap pops, rounds), by algorithm";
  Solver_obs.count ~algo:"lmg" "dsvc_solver_swaps_considered_total" !considered
    ~help:
      "Candidate swaps popped from the greedy loop's heap (each pop checks \
       budget and tree validity)";
  Solver_obs.count ~algo:"lmg" "dsvc_solver_swaps_accepted_total" !accepted
    ~help:"Candidate swaps actually applied by the greedy loop";
  to_storage_graph st

let solve_p5 g ~base ~spt ~sum_bound ?freqs ?(iterations = 40) () =
  let measure sg =
    match freqs with
    | Some f -> Storage_graph.weighted_recreation sg ~freqs:f
    | None -> Storage_graph.sum_recreation sg
  in
  if measure spt > sum_bound then
    Error
      (Printf.sprintf
         "sum-recreation bound %.1f is below the SPT optimum %.1f" sum_bound
         (measure spt))
  else begin
    let lo = ref (Storage_graph.storage_cost base) in
    let hi = ref (Storage_graph.storage_cost spt) in
    let best = ref None in
    (* Check the cheap end first: the base tree may already satisfy
       the bound. *)
    if measure base <= sum_bound then best := Some base
    else begin
      for _ = 1 to iterations do
        let mid = (!lo +. !hi) /. 2.0 in
        let sg = solve g ~base ~spt ~budget:mid ?freqs () in
        if measure sg <= sum_bound then begin
          (match !best with
          | Some b when Storage_graph.storage_cost b <= Storage_graph.storage_cost sg
            ->
              ()
          | _ -> best := Some sg);
          hi := mid
        end
        else lo := mid
      done;
      (* The SPT itself is always a fallback. *)
      if !best = None then best := Some spt
    end;
    match !best with Some sg -> Ok sg | None -> assert false
  end
