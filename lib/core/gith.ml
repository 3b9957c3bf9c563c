module Digraph = Versioning_graph.Digraph
module Pool = Versioning_util.Pool

(* Candidate search is driven by the new version's revealed in-edges
   checked against a window membership table (O(in-degree) per
   version) rather than by scanning window members. Window recency is
   a lazy-deletion queue: each touch enqueues a fresh (stamp, v) and
   bumps the member's current stamp; stale queue entries are skipped
   at eviction time. *)

type window = {
  bound : int;  (* max_int = unbounded *)
  stamps : (int, int) Hashtbl.t;  (* member -> latest stamp *)
  queue : (int * int) Queue.t;  (* (stamp, member), oldest first *)
  mutable clock : int;
  mutable size : int;
}

let window_create bound =
  { bound; stamps = Hashtbl.create 64; queue = Queue.create (); clock = 0; size = 0 }

let window_mem w v = Hashtbl.mem w.stamps v

let window_touch w v =
  w.clock <- w.clock + 1;
  if not (window_mem w v) then w.size <- w.size + 1;
  Hashtbl.replace w.stamps v w.clock;
  Queue.add (w.clock, v) w.queue;
  (* Evict the genuinely oldest members down to the bound. *)
  while w.size > w.bound do
    match Queue.take_opt w.queue with
    | None -> w.size <- w.bound (* unreachable; defensive *)
    | Some (stamp, u) -> (
        match Hashtbl.find_opt w.stamps u with
        | Some s when s = stamp ->
            Hashtbl.remove w.stamps u;
            w.size <- w.size - 1
        | _ -> () (* stale entry *))
  done

let solve ?(depth_bias = true) ?(jobs = Pool.default_jobs ()) g ~window
    ~max_depth =
  if max_depth < 1 then invalid_arg "Gith.solve: max_depth must be >= 1";
  Solver_obs.timed ~algo:"gith" @@ fun () ->
  let n = Aux_graph.n_versions g in
  let bound = if window <= 0 then max_int else window in
  (* Largest full version first; [size.(v - 1)] is 0 without one. *)
  let size =
    Array.init n (fun i ->
        match Aux_graph.materialization g (i + 1) with
        | Some w -> w.Aux_graph.delta
        | None -> 0.0)
  in
  let order = Array.init n (fun i -> i + 1) in
  Array.sort
    (fun a b ->
      match compare size.(b - 1) size.(a - 1) with 0 -> compare a b | c -> c)
    order;
  let dg = Aux_graph.graph g in
  (* The candidate ⟨Δ,Φ⟩ gather per version is a pure read of the aux
     graph, so it fans out over the domain pool; only the selection
     below is sequential (each choice mutates the window and the
     depths the next choice depends on). Candidates keep [iter_in]
     order, so selection sees exactly the sequential stream. *)
  let candidates =
    Pool.parallel_init ~jobs n (fun i ->
        let acc = ref [] in
        Digraph.iter_in dg (i + 1) (fun e ->
            if e.src <> 0 then acc := (e.src, e.label) :: !acc);
        Array.of_list (List.rev !acc))
  in
  let depth = Array.make (n + 1) 0 in
  let parent = Array.make (n + 1) 0 in
  let weight =
    Array.make (n + 1) ({ delta = 0.0; phi = 0.0 } : Aux_graph.weight)
  in
  let win = window_create bound in
  let error = ref None in
  let materialized = ref 0 in
  let deltas = ref 0 in
  let scanned = ref 0 in
  let materialize v =
    match Aux_graph.materialization g v with
    | Some w ->
        incr materialized;
        parent.(v) <- 0;
        weight.(v) <- w;
        depth.(v) <- 0;
        window_touch win v
    | None ->
        if !error = None then
          error :=
            Some
              (Printf.sprintf
                 "version %d has no delta candidate and no materialization" v)
  in
  Array.iteri
    (fun idx v ->
      if !error = None then
        if idx = 0 then materialize v
        else begin
          let best = ref None in
          Array.iter
            (fun (l, label) ->
              incr scanned;
              if window_mem win l && depth.(l) < max_depth then begin
                let score =
                  if depth_bias then
                    label.Aux_graph.delta
                    /. float_of_int (max_depth - depth.(l))
                  else label.Aux_graph.delta
                in
                match !best with
                | Some (s, l', _) when s < score || (s = score && l' <= l) -> ()
                | _ -> best := Some (score, l, label)
              end)
            candidates.(v - 1);
          match !best with
          | Some (_, l, w) ->
              incr deltas;
              parent.(v) <- l;
              weight.(v) <- w;
              depth.(v) <- depth.(l) + 1;
              (* Newcomer enters, the base is kept fresh (Appendix A
                 Step 3 moves it to the window's end). *)
              window_touch win v;
              window_touch win l
          | None -> materialize v
        end)
    order;
  Solver_obs.count ~algo:"gith" "dsvc_solver_candidates_scanned_total" !scanned
    ~help:"Window candidates scanned by the GitH selection loop";
  Solver_obs.count ~algo:"gith" "dsvc_solver_deltas_chosen_total" !deltas
    ~help:"Versions GitH stored as deltas against a window member";
  Solver_obs.count ~algo:"gith" "dsvc_solver_materializations_total"
    !materialized
    ~help:"Versions GitH materialized in full";
  match !error with
  | Some e -> Error e
  | None ->
      let choices =
        List.init n (fun i ->
            let v = i + 1 in
            (parent.(v), v, weight.(v)))
      in
      Storage_graph.of_parent_edges ~n choices
