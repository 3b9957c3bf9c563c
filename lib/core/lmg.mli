(** LMG — the Local Move Greedy heuristic (§4.1), for the problems
    with an {e average/sum} recreation-cost criterion (Problems 3
    and 5).

    Start from the minimum-storage tree (MST or MCA); while the
    storage budget allows, greedily replace the in-edge of some
    version [v] by [v]'s SPT in-edge, picking each round the
    replacement maximizing

    {v ρ = (reduction in Σ recreation) / (increase in storage) v}

    The numerator is [subtree(v) × (old Rv − new Rv)] — a swap at [v]
    shifts every descendant equally — or its access-frequency-weighted
    analogue in the workload-aware variant (Figure 16). Swaps whose
    storage increase is non-positive but that reduce recreation are
    always taken. The candidates sit in a heap; a swap re-scores only
    those on the two ancestor paths it changes, in the moved subtree,
    and those whose SPT parent lies in it, so a round costs the path
    lengths and the moved subtree, not a rescan of every candidate.
    Ties in ρ go to the largest version id. *)

val solve :
  Aux_graph.t ->
  base:Storage_graph.t ->
  spt:Storage_graph.t ->
  budget:float ->
  ?freqs:float array ->
  unit ->
  Storage_graph.t
(** [solve g ~base ~spt ~budget ()] — [base] is the minimum-storage
    tree (its storage cost should be ≤ [budget]; otherwise it is
    returned unchanged), [spt] the shortest-path tree over Φ.
    [freqs], when given (indexed [1..n]), switches the numerator to
    weighted recreation. *)

val solve_p5 :
  Aux_graph.t ->
  base:Storage_graph.t ->
  spt:Storage_graph.t ->
  sum_bound:float ->
  ?freqs:float array ->
  ?iterations:int ->
  unit ->
  (Storage_graph.t, string) result
(** Problem 5: minimize storage subject to [Σ Ri ≤ sum_bound], by
    binary search on the budget handed to {!solve} ([iterations]
    halvings, default 40). [Error] when even the SPT violates the
    bound (no LMG-reachable solution satisfies it). *)
