(** Independent verifier for storage solutions.

    Lemma 1 says every optimal solution of Problems 1–6 is a spanning
    arborescence of the auxiliary graph rooted at the dummy vertex
    [V0], with storage cost [C = Σ Δ] over the chosen edges and
    recreation cost [Ri = Σ Φ] along each root path. The solvers all
    promise to produce exactly that; this module re-derives the claim
    from scratch so tests (and [dsvc optimize --check-solutions]) can
    distinguish "the solver said so" from "it is so".

    The checks, in order:
    - the solution covers versions [1..n] of the graph, each with
      exactly one parent — a spanning arborescence (cycle-free, every
      root path ends at [V0]);
    - every chosen edge corresponds to a {e revealed} entry of the
      auxiliary graph with a matching ⟨Δ, Φ⟩ weight (for delta edges a
      reverse-revealed edge of equal weight is accepted, which is how
      undirected solutions of the symmetric scenarios are encoded);
    - the solution's cached cost accounting ([storage_cost],
      [recreation_cost], [sum_recreation], [max_recreation]) agrees
      with an independent recomputation from the parent choices and
      the graph's weights. *)

type report = {
  n_versions : int;
  storage : float;  (** independently recomputed [C] *)
  sum_recreation : float;  (** independently recomputed [Σ Ri] *)
  max_recreation : float;  (** independently recomputed [max Ri] *)
}

val check :
  Aux_graph.t -> Storage_graph.t -> (report, string list) result
(** [check g sg] verifies [sg] against [g] and returns the recomputed
    totals, or every violation found (never an empty error list). *)
