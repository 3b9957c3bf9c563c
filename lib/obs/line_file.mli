(** The line format shared by every file the store persists: the
    repository metadata, the optimize journal, the telemetry ledger
    and the time-series file.

    {v
    <magic> 1
    <body line>
    ...
    end
    v}

    Fields within a line are separated by single spaces. The header
    names the file kind and format version; the [end] trailer tells a
    complete file from one torn mid-write. Pure strings: callers do
    their own I/O through [Fsutil]. *)

val render : magic:string -> string list -> string
(** Header, the body lines in order, trailer; each line ends in a
    newline. *)

val parse :
  magic:string ->
  what:string ->
  string ->
  (string list -> unit) ->
  (unit, string) result
(** [parse ~magic ~what content f] checks the header and the trailer,
    then calls [f] with the space-split fields of each non-blank body
    line, in order. Fails with ["corrupt <what>: ..."] when the first
    line is not [<magic> 1] (another version number is reported as
    unsupported), when the [end] trailer is missing or followed by
    anything but blank lines, or when [f] rejects a line through
    {!bad}, {!int} or {!float}. No line is handed to [f] unless the
    header and trailer are both present. *)

val bad : string -> 'a
(** Reject the current line from inside a {!parse} callback, with a
    reason. *)

val int : string -> int
(** An integer field; rejects the line (as {!bad}) otherwise. *)

val float : string -> float
(** A float field, decimal or hex; rejects the line otherwise. *)

val hex : float -> string
(** Render a float in [%h] hex notation, so {!float} reads back the
    exact value. *)
