(** Directed graph with integer vertices and arbitrary edge labels.

    Vertices are [0 .. n-1], fixed at creation. Parallel edges are
    permitted (the versioning setting can expose several delta
    mechanisms between the same pair of versions); self-loops are
    rejected since neither a version graph nor a storage graph can use
    them. Adjacency is kept in growable arrays on both endpoints, so
    [out_edges]/[in_edges] are O(degree) and edge insertion is
    amortized O(1). *)

type 'a t

type 'a edge = { src : int; dst : int; label : 'a }

val create : n:int -> 'a t
(** [create ~n] is an edgeless graph on vertices [0..n-1]. *)

val n_vertices : 'a t -> int
val n_edges : 'a t -> int

val add_edge : 'a t -> src:int -> dst:int -> 'a -> unit
(** @raise Invalid_argument on out-of-range endpoints or a self-loop. *)

val out_edges : 'a t -> int -> 'a edge list
(** Edges leaving a vertex, in insertion order. *)

val in_edges : 'a t -> int -> 'a edge list
(** Edges entering a vertex, in insertion order. *)

val iter_out : 'a t -> int -> ('a edge -> unit) -> unit
(** Allocation-light iteration over out-edges. *)

val iter_in : 'a t -> int -> ('a edge -> unit) -> unit

val iter_edges : 'a t -> ('a edge -> unit) -> unit
(** Every edge exactly once, grouped by source vertex. *)

val fold_edges : 'a t -> init:'b -> f:('b -> 'a edge -> 'b) -> 'b

val edges : 'a t -> 'a edge list
(** All edges as a list (grouped by source). *)

val find_edge : 'a t -> src:int -> dst:int -> 'a edge option
(** First inserted edge [src -> dst], if any; [None] for an
    out-of-range [dst]. Scans the shorter of [src]'s out-edges and
    [dst]'s in-edges: O(min(out-degree, in-degree)).
    @raise Invalid_argument on an out-of-range [src]. *)
