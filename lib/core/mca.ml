module Digraph = Versioning_graph.Digraph

(* Chu–Liu/Edmonds with explicit contraction history, on flat arrays.

   Levels: level 0 is the input graph. Each round selects the
   cheapest in-edge of every active non-root vertex; if the selection
   is acyclic it is the arborescence of that level, otherwise every
   selected cycle is contracted into a fresh supernode and edge
   weights entering a cycle are reduced by the weight of the selected
   in-edge of their target (the classic reduced costs), producing
   level k+1.

   A level's edges live in the parallel arrays [src]/[dst]/[w]/[orig]
   ([orig] indexes the level-0 edge an edge stands for), compacted in
   place when a round contracts; compaction keeps their order, so a
   tie goes to the same edge at every level. [up.(v)] is the supernode
   [v] was contracted into ([v] itself while active) and [inc.(v)] the
   level-0 edge selected into [v]. The unwind walks supernodes newest
   first: the edge chosen into a supernode displaces exactly one cycle
   edge — that of the member on the [up] chain of the edge's original
   target. *)

let weight = Storage_graph.storage_cost

let solve g =
  Solver_obs.timed ~algo:"mca" @@ fun () ->
  let dg = Aux_graph.graph g in
  let n_orig = Digraph.n_vertices dg in
  let root = 0 in
  (* Each contraction round removes at least one vertex net of the
     supernode it adds, so ids stay below 2 * n_orig + 1. *)
  let max_ids = (2 * n_orig) + 1 in
  (* Level 0 lists the edges in reverse [iter_edges] order. *)
  let edges0 =
    Array.of_list (Digraph.fold_edges dg ~init:[] ~f:(fun acc e -> e :: acc))
  in
  let m = ref (Array.length edges0) in
  let src = Array.map (fun (e : _ Digraph.edge) -> e.src) edges0 in
  let dst = Array.map (fun (e : _ Digraph.edge) -> e.dst) edges0 in
  let w = Array.map (fun (e : _ Digraph.edge) -> e.label.Aux_graph.delta) edges0 in
  let orig = Array.init !m Fun.id in
  let up = Array.init max_ids Fun.id in
  let inc = Array.make max_ids (-1) in
  let best_w = Array.make max_ids 0.0 in
  let best_src = Array.make max_ids (-1) in
  let color = Array.make max_ids 0 in
  let active = ref (Array.init n_orig Fun.id) in
  let next_id = ref n_orig in
  let round = ref 0 in
  let n_cycles = ref 0 in
  let result = ref None in
  while !result = None do
    (* Cheapest in-edge per active non-root vertex: the smaller source
       id, then the earlier edge, wins a weight tie. *)
    Array.iter (fun v -> best_src.(v) <- -1) !active;
    for i = 0 to !m - 1 do
      let d = dst.(i) in
      if d <> root then begin
        let s = src.(i) and wi = w.(i) and bs = best_src.(d) in
        if bs < 0 || wi < best_w.(d) || (wi = best_w.(d) && s < bs) then begin
          best_w.(d) <- wi;
          best_src.(d) <- s;
          inc.(d) <- orig.(i)
        end
      end
    done;
    if Array.exists (fun v -> v <> root && best_src.(v) < 0) !active then
      result :=
        Some (Error "some version has no revealed in-edge: no valid solution exists")
    else begin
      (* Find cycles among selected edges by pointer-chasing:
         0 unvisited / 1 on current path / 2 done. *)
      Array.iter (fun v -> color.(v) <- 0) !active;
      color.(root) <- 2;
      let cycles = ref [] in
      Array.iter
        (fun start ->
          let v = ref start in
          while color.(!v) = 0 do
            color.(!v) <- 1;
            v := best_src.(!v)
          done;
          if color.(!v) = 1 then cycles := !v :: !cycles;
          let u = ref start in
          while color.(!u) = 1 do
            color.(!u) <- 2;
            u := best_src.(!u)
          done)
        !active;
      if !cycles = [] then result := Some (Ok ())
      else begin
        (* Contract every cycle; the last one found gets the smallest
           id. A member keeps its cycle in-edge in [inc]. *)
        let fresh = List.length !cycles in
        List.iter
          (fun start ->
            let s = !next_id in
            incr next_id;
            assert (s < max_ids);
            let u = ref start in
            while up.(!u) <> s do
              up.(!u) <- s;
              u := best_src.(!u)
            done)
          !cycles;
        n_cycles := !n_cycles + fresh;
        incr round;
        (* Reduced cost for edges entering a contracted vertex. *)
        let kept = ref 0 in
        for i = 0 to !m - 1 do
          let s = up.(src.(i)) and d0 = dst.(i) in
          let d = up.(d0) in
          if s <> d then begin
            src.(!kept) <- s;
            dst.(!kept) <- d;
            w.(!kept) <- (if d <> d0 then w.(i) -. best_w.(d0) else w.(i));
            orig.(!kept) <- orig.(i);
            incr kept
          end
        done;
        m := !kept;
        let survivors = List.filter (fun v -> up.(v) = v) (Array.to_list !active) in
        active :=
          Array.of_list (List.init fresh (fun i -> !next_id - fresh + i) @ survivors)
      end
    end
  done;
  Solver_obs.count ~algo:"mca" "dsvc_solver_iterations_total" (!round + 1)
    ~help:"Main-loop iterations (heap pops, rounds), by algorithm";
  Solver_obs.count ~algo:"mca" "dsvc_solver_cycles_contracted_total" !n_cycles
    ~help:"Cycles contracted by Chu-Liu/Edmonds rounds";
  match !result with
  | Some (Error e) -> Error e
  | _ ->
      for s = !next_id - 1 downto n_orig do
        let c = ref edges0.(inc.(s)).dst in
        while up.(!c) <> s do
          c := up.(!c)
        done;
        inc.(!c) <- inc.(s)
      done;
      Storage_graph.of_parent_edges ~n:(n_orig - 1)
        (List.init (n_orig - 1) (fun i ->
             let e = edges0.(inc.(i + 1)) in
             (e.src, e.dst, e.label)))
