(** LEB128 variable-length integers — the wire primitive of
    {!Compress}'s codecs. *)

val add : Buffer.t -> int -> unit
(** Append the encoding of a non-negative integer. *)

val read : string -> int -> int * int
(** [read s pos] returns [(value, next_pos)].
    @raise Invalid_argument on truncated input. *)

val size : int -> int
(** Encoded length in bytes. *)
