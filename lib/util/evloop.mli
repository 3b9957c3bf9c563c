(** Readiness reactor for the event-driven server (DESIGN.md §13).

    A loop is a table of registered file descriptors with per-fd
    read/write interest and a callback. Each {!wait} hands the table to
    poll(2) through a small C stub: O(registered) per wait, and no
    FD_SETSIZE ceiling on descriptor numbers.

    Threading contract: exactly one thread calls {!wait} (and
    {!add}/{!modify}/{!remove}, directly or from callbacks). Any
    thread may call {!post}; the job runs on the loop thread during
    its next {!wait}, woken immediately via a self-pipe. *)

type t

type event = [ `Read | `Write ]

val create : unit -> t
(** Create a loop and its wakeup self-pipe. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> (event -> unit) -> unit
(** Register [fd]. The callback fires on the loop thread whenever the
    fd is ready in a direction of current interest; error and hangup
    conditions are reported as [`Read] so the handler observes the
    failure from its normal read path. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change interest for a registered fd. Unknown fds are ignored. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister. Call before closing the fd. *)

val post : t -> (unit -> unit) -> unit
(** Thread-safe: enqueue a job for the loop thread and wake it. *)

val add_timer : t -> period:float -> (unit -> unit) -> unit
(** Register a periodic timer (loop thread only, like {!add}). The
    callback fires on the loop thread during {!wait} whenever its
    deadline has passed, then re-arms [period] seconds from {e now} —
    at most one firing per wait, no backlog after a stall. {!wait}
    caps its poll timeout at the nearest timer deadline. Callbacks
    run under the same lint-R7 contract as fd callbacks: nothing
    Blocks-level may be reachable from them (hand blocking work to an
    executor). Raises [Invalid_argument] on a non-positive period.
    A timer stays armed for the loop's life. *)

val wait : t -> timeout:float -> unit
(** Run one iteration: posted jobs, then up to [timeout] seconds of
    readiness waiting (negative = forever), then callbacks for every
    ready fd, due timers, and jobs posted meanwhile. *)

val close : t -> unit
(** Release the self-pipe. Registered fds are untouched. *)

val writev : Unix.file_descr -> (string * int * int) array -> int
(** Vectored write of [(string, offset, length)] slices (at most 16
    are consumed per call). Returns bytes written, or [-1] when the
    socket cannot accept data right now (EAGAIN/EINTR — retry when
    writable). Raises [Unix.Unix_error] on hard failures (EPIPE,
    ECONNRESET, …). *)

val input_pending : Unix.file_descr -> bool
(** Whether [fd] has anything pending right now: data, end of file,
    an error, a hangup, or an invalid descriptor (poll(2) at zero
    timeout). Unlike [Unix.select] it works for descriptors at or
    above [FD_SETSIZE]. Raises [Unix.Unix_error] if poll fails. *)

val fd_int : Unix.file_descr -> int
(** The numeric value of a descriptor (Unix only); handy as a table
    key and for diagnostics. *)
