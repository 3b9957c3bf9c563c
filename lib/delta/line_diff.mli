(** UNIX-style line-based deltas between text documents.

    A delta records, for an ordered pair of documents [(a, b)], a
    minimal line-level edit script (via {!Myers}) together with the
    inserted line payloads, so it is self-contained: applying it needs
    only [a]. This is the paper's "UNIX-style diff" delta variant —
    inherently {e directed} (the reverse direction needs the deleted
    payloads instead); {!invert} builds the reverse delta, and
    {!symmetric_size} gives the storage cost of keeping both
    directions, the construction used for the undirected experiments
    (§5.3, "undirected deltas were obtained by concatenating the two
    directional deltas"). *)

type t

type op =
  | Keep of int  (** copy [k] source lines *)
  | Delete of int  (** drop [k] source lines *)
  | Insert of string array  (** add these lines *)

val diff : string -> string -> t
(** [diff a b] is the delta from document [a] to document [b]. Lines
    are separated by ['\n']; a trailing newline and its absence are
    distinguished. *)

(** {2 Interned lines}

    For many diffs over one set of documents — a repository's reveal
    prices every hop pair of its versions. *)

type lines
(** Immutable once built: each document as an array of line ids, plus
    one canonical string per distinct line. Safe to share across
    domains. *)

val intern : string array -> lines
(** [intern docs] splits each document into lines once, as {!diff}
    does, and numbers the distinct lines. Costs one hashtable lookup
    per line; keeps one copy of each distinct line. *)

val diff_in : lines -> int -> int -> t
(** [diff_in (intern docs) u v] {!equal}s [diff docs.(u) docs.(v)]:
    Myers runs on the line ids, and interning is injective, so it sees
    the same equality relation and takes the same edit path. Prefer
    {!diff} for a single pair: interning two documents costs more than
    it saves. *)

val split : string -> string array
(** A document's lines: its ['\n']-separated pieces, so [n] newlines
    give [n + 1] lines and a trailing newline is a final empty line. *)

val join : string array -> string
(** Inverse of {!split}: [join (split s) = s]. *)

val apply_lines : string array -> t -> string array
(** [apply_lines (split a) d] is [split b]. Kept lines are shared with
    the source array, not copied, so a chain of deltas replays on one
    document's lines: {!split} the base once, apply each delta, and
    {!join} once at the end — the cost of a step is the line count
    plus the inserted lines, not the document's bytes. @raise
    Invalid_argument when the source is not the document the delta
    was built against (detected by script overrun; content drift on
    equal shape is not detectable), before anything is allocated. *)

val apply : string -> t -> string
(** [apply a d] reconstructs [b]: [join (apply_lines (split a) d)],
    raising as {!apply_lines} does. *)

val ops : t -> op list
(** The script, for inspection. *)

val invert : string -> t -> t
(** [invert a d] is the delta from [b = apply a d] back to [a]. *)

val size : t -> int
(** Storage cost in bytes of the encoded delta: [String.length (encode
    d)], computed from the header counts and payload lengths without
    serializing. It still counts as one {!encode} of that many bytes
    in the [dsvc_delta_line_encode_total] and
    [dsvc_delta_line_encode_bytes_total] counters. *)

val symmetric_size : lines -> int -> t -> int
(** [symmetric_size (intern docs) u d] is [size d + size (invert
    docs.(u) d)]: the cost of an undirected (two-way) delta from
    document [u]. *)

val n_changed_lines : t -> int
(** Inserted + deleted line count — the "edit distance" in lines. *)

val encode : t -> string
(** Compact, line-oriented wire format (headers [K n]/[D n]/[I n]
    followed by payload lines). *)

val decode : string -> t
(** Inverse of {!encode}. @raise Invalid_argument on malformed
    input. *)

val equal : t -> t -> bool
