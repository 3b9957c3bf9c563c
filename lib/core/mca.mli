(** Minimum-cost arborescence (directed MST) rooted at [V0] — the
    optimal storage graph for Problem 1 in the {e directed} cases
    (Lemma 2 / Table 1), computed with Edmonds' algorithm
    (Chu–Liu/Edmonds with cycle contraction) in O(E · rounds) time,
    where each round contracts every cycle of the current selection
    (at most V rounds, far fewer in practice).

    This is the minimum-storage extreme of the tradeoff: no other
    valid solution stores fewer bytes, but recreation costs are
    unbounded (§5.3 reports them orders of magnitude above the SPT
    minimum — the motivation for LMG/MP/LAST). *)

val solve : Aux_graph.t -> (Storage_graph.t, string) result
(** [Error] when some version has no revealed in-edge reachable from
    the root (no valid solution exists).

    Deterministic, and the tree itself (not only its weight) is part
    of the contract, since LMG and LAST start from it. Each round
    selects, per vertex, the in-edge of least (reduced) weight; a
    weight tie goes to the smaller source id at the current level,
    then to the edge that comes first in the reverse of
    {!Versioning_graph.Digraph.iter_edges} order (of two parallel
    edges, the one revealed later). Vertices at a level
    are the versions [0..n] plus supernodes numbered [n+1, n+2, ...]
    in creation order. Within one round, the cycles are found by
    walking the selection from each vertex in turn (at level 0 the
    versions ascending; later, the previous round's supernodes
    ascending, then the remaining vertices in their previous order),
    and the cycle found last gets the smallest id. *)

val weight : Storage_graph.t -> float
(** Alias for {!Storage_graph.storage_cost}. *)
