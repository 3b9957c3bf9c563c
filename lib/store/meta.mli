(** Repository metadata as one immutable value, and the formats that
    persist it.

    A value holds everything [.dsvc/meta] records: the commit DAG,
    the storage plan (the paper's spanning tree: each version stored
    in full or as a delta from one parent), branches, tags, the
    current branch, the next version id and the save generation.
    {!Repo} builds the next value for every mutation, saves it, and
    installs it only once the save succeeded.

    The metadata file and the optimize journal are {!Versioning_obs.Line_file}
    containers. Both render their [stored] entries in ascending id
    order; parsing accepts any order. *)

type commit_info = {
  id : int;
  parents : int list;
  message : string;
  timestamp : float;
}

(** How one version is stored; the string is the object's digest. *)
type stored = Full of string | Delta_from of int * string

module Int_map : Map.S with type key = int

type t = {
  commits : commit_info list;  (** newest first *)
  stored : stored Int_map.t;  (** the storage plan, by version *)
  branches : (string * int) list;  (** version 0: no commit yet *)
  tags : (string * int) list;
  head : string;  (** the current branch *)
  next_id : int;
  generation : int;
      (** bumped on every durable save, so replicated nodes only ever
          move forward; absent ([gen 0]) in pre-cluster metadata *)
}

val empty : t
(** A fresh repository: branch ["main"] with no commit, generation 0. *)

val valid_ref_name : string -> bool
(** Whether a branch or tag name fits the line format: non-empty, at
    most 255 bytes, printable, no whitespace. *)

val render : t -> string
(** The metadata file. *)

val parse : string -> (t, string) result
(** Inverse of {!render}; [Error "corrupt repository metadata: ..."]
    on a torn or malformed file. Commits come back newest first
    whatever their order in the file. *)

val render_journal :
  old_map:stored Int_map.t -> new_map:stored Int_map.t -> string
(** The optimize journal: the storage plan before and after a re-plan. *)

val parse_journal :
  string -> (stored Int_map.t * stored Int_map.t, string) result
(** Inverse of {!render_journal}: [(old_map, new_map)]. *)
