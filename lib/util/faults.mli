(** Deterministic fault injection for the store stack.

    Every durability-critical code path in {!Object_store}, {!Repo},
    {!Http}, {!Server} and {!Client} consults this registry at a named
    {e site} before acting, so tests can provoke — deterministically
    and without sleeping or killing processes — the failures a real
    deployment sees: a write that errors partway (ENOSPC), a process
    dying between two phases of a multi-step operation, a torn
    metadata write from a crash without fsync, silent single-byte
    media corruption, and dropped connections.

    When nothing is armed every site is a single mutex-protected
    hashtable probe, so the hooks are safe to leave in production
    builds.

    Well-known sites:
    - ["object_store.write"] — blob writes (staged ones included)
    - ["object_store.sync"] — once per non-empty batch of blob writes,
      before its first sync ([Fail] fails the batch, [Crash] dies
      with its writes still unpublished temp files)
    - ["repo.save"] — metadata writes
    - ["repo.journal"] — the optimize journal write
    - ["optimize.after_objects"], ["optimize.after_journal"],
      ["optimize.after_swap"], ["optimize.before_gc"] — crash points
      between the phases of {!Repo.optimize}
    - ["http.write_response"] — the connection drops before the
      response is written (also makes a raising-mid-request server)
    - ["write"] — wildcard matched by every write site *)

type action =
  | Fail of string
      (** the operation writes part of its data, then returns [Error]
          with this message (a clean I/O failure, e.g. disk full) *)
  | Crash
      (** raise {!Injected} before the operation takes effect — the
          process "dies" at this point *)
  | Torn of float
      (** a write persists only this fraction of its bytes, becomes
          visible, then {!Injected} is raised — a crash without fsync *)
  | Corrupt of int
      (** a write silently flips one byte (at this index, modulo the
          length) and reports success — media corruption *)
  | Drop  (** a connection site closes the connection abruptly *)

exception Injected of string
(** Raised by {!guard} / {!on_write} sites for [Crash], [Torn] and
    [Drop] actions; the payload is the site name. *)

val arm : site:string -> ?after:int -> action -> unit
(** Arm [site]: the next consultation after [after] (default 0)
    unaffected passes triggers [action] once, then the site disarms
    itself. Re-arming replaces any previous action. *)

val disarm : site:string -> unit
val reset : unit -> unit
(** Disarm everything and zero all hit counters. Call between tests. *)

val armed : site:string -> bool

val hits : site:string -> int
(** How many times [site] has been consulted since the last {!reset} —
    lets a test count, say, the writes in an [optimize] and then crash
    each one in turn. *)

val check : string -> action option
(** Consult a site: increments its hit counter and returns the armed
    action if its countdown expired (disarming it). Most call sites
    use the higher-level {!guard} / {!on_write} instead. *)

val guard : string -> unit
(** Consult a site and raise {!Injected} if any action triggered —
    the idiom for pure crash points between phases. *)

val crash : string -> 'a
(** Raise {!Injected} unconditionally (used by write helpers after
    making a torn write visible). *)

val on_write :
  string ->
  string ->
  [ `Fail of string * string  (** partial data to write, error message *)
  | `Write of string * bool  (** data to write, crash once it is visible *)
  ]
(** Filter a write of the given content through the site (and through
    the ["write"] wildcard site). [`Write (data, false)] with the
    original content is the no-fault case. Raises {!Injected} for
    [Crash]/[Drop]. *)
