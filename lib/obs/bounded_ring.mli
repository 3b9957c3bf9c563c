(** A fixed-capacity ring that overwrites its oldest element.

    The one bounded buffer behind the trace span ring, the flight
    recorder, the server's recent-request table, the telemetry cost
    samples and each time-series tier. Storage grows on demand up to
    the capacity, so a large ring that stays mostly empty costs
    little memory.

    Not synchronized: each owner guards its ring with its own
    mutex. *)

type 'a t

val create : int -> 'a t
(** An empty ring holding at most the given number of elements. A
    capacity of 0 is allowed and keeps nothing. Raises
    [Invalid_argument] on a negative capacity. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Append an element, dropping the oldest one when the ring is
    full. *)

val to_list : 'a t -> 'a list
(** The retained elements, oldest first. *)

val newest : 'a t -> 'a option
(** The most recently pushed element still retained. *)

val pushed : 'a t -> int
(** Elements pushed since creation or the last {!clear}, including
    those since overwritten. *)

val clear : 'a t -> unit
(** Drop every element and reset {!pushed}. *)
