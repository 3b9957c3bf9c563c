(** Content addressing for the object store.

    A 128-bit FNV-1a hash rendered as 32 hex characters. Not
    cryptographic — the store is a single-writer prototype (like the
    paper's), and the hash only needs to make accidental collisions
    negligible; DESIGN.md records this substitution for SHA-1. *)

val hex : string -> string
(** [hex content] is the 32-character lowercase hex digest. *)

val is_valid : string -> bool
(** Whether a string is a well-formed digest. *)
