(* Readiness reactor behind the event-driven server (DESIGN.md §13).

   One thread owns a loop instance and calls [wait]; callbacks run on
   that thread. Other threads talk to the loop only through [post],
   which enqueues a job and wakes the poller via a self-pipe.

   Each [wait] hands the table of registered fds to poll(2) through a
   small C stub: O(registered) per wait, and no FD_SETSIZE ceiling on
   descriptor numbers. *)

external fd_int : Unix.file_descr -> int = "dsvc_fd_int"

external raw_poll : int array -> int array -> int -> int array = "dsvc_poll"

external raw_writev : Unix.file_descr -> (string * int * int) array -> int
  = "dsvc_writev"

(* Event bits shared with the stubs. *)
let ev_read = 1

let ev_write = 2

type event = [ `Read | `Write ]

type entry = {
  e_num : int;
  mutable e_read : bool;
  mutable e_write : bool;
  e_cb : event -> unit;
}

type timer = {
  tm_period : float;
  tm_cb : unit -> unit;
  mutable tm_next : float; (* absolute deadline *)
}

type t = {
  table : (int, entry) Hashtbl.t;
  jobs : (unit -> unit) Queue.t;
  jobs_mutex : Mutex.t;
  mutable timers : timer list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable closed : bool;
}

let bits_of entry =
  (if entry.e_read then ev_read else 0)
  lor if entry.e_write then ev_write else 0

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      table = Hashtbl.create 64;
      jobs = Queue.create ();
      jobs_mutex = Mutex.create ();
      timers = [];
      wake_r;
      wake_w;
      closed = false;
    }
  in
  (* The wakeup pipe is a normal registration: draining it is all the
     callback does; the posted jobs run from [wait] itself. *)
  let drain _ =
    let buf = Bytes.create 64 in
    let rec go () =
      match Unix.read wake_r buf 0 64 with
      | n when n = 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  let entry =
    { e_num = fd_int wake_r; e_read = true; e_write = false; e_cb = drain }
  in
  Hashtbl.replace t.table entry.e_num entry;
  t

let add t fd ~read ~write cb =
  let entry =
    { e_num = fd_int fd; e_read = read; e_write = write; e_cb = cb }
  in
  Hashtbl.replace t.table entry.e_num entry

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.table (fd_int fd) with
  | None -> ()
  | Some entry ->
      entry.e_read <- read;
      entry.e_write <- write

let remove t fd = Hashtbl.remove t.table (fd_int fd)

let post t job =
  Mutex.lock t.jobs_mutex;
  Queue.push job t.jobs;
  Mutex.unlock t.jobs_mutex;
  (* A full pipe already guarantees a pending wakeup. *)
  match Unix.write_substring t.wake_w "x" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    ->
      ()

(* ---- periodic timers ----

   Loop-thread only, like [add]/[modify]/[remove]: a timer is armed
   with an absolute deadline and re-armed from its own firing, so it
   ticks at most once per [wait] and never accumulates a backlog
   after a stall (a late loop fires once, then resumes cadence from
   now). A loop with no timers never reads the clock — behaviour is
   bit-identical to before timers existed. *)

let add_timer t ~period cb =
  if not (period > 0.0) then invalid_arg "Evloop.add_timer: period must be > 0";
  t.timers <-
    { tm_period = period; tm_cb = cb; tm_next = Unix.gettimeofday () +. period }
    :: t.timers

let run_due_timers t =
  match t.timers with
  | [] -> ()
  | timers ->
      let now = Unix.gettimeofday () in
      List.iter
        (fun tm ->
          if tm.tm_next <= now then begin
            tm.tm_next <- now +. tm.tm_period;
            tm.tm_cb ()
          end)
        timers

let run_jobs t =
  let pending = Queue.create () in
  Mutex.lock t.jobs_mutex;
  Queue.transfer t.jobs pending;
  Mutex.unlock t.jobs_mutex;
  Queue.iter (fun job -> job ()) pending

(* Dispatch one readiness report. The table is re-consulted (by
   physical equality) before each callback: an earlier callback in the
   same batch may have removed the entry, or even recycled the fd
   number for a brand-new registration. *)
let dispatch t entry bits =
  let live () =
    match Hashtbl.find_opt t.table entry.e_num with
    | Some e -> e == entry
    | None -> false
  in
  if bits land ev_read <> 0 && entry.e_read && live () then entry.e_cb `Read;
  if bits land ev_write <> 0 && entry.e_write && live () then entry.e_cb `Write

let timeout_ms timeout =
  if timeout < 0.0 then -1 else int_of_float (Float.ceil (timeout *. 1000.0))

let wait t ~timeout =
  run_jobs t;
  (* An armed timer caps the poll: the loop must wake for its
     deadline even when no fd turns ready. Timer-free loops keep the
     caller's timeout untouched (and read no clock). *)
  let timeout =
    match t.timers with
    | [] -> timeout
    | timers ->
        let next =
          List.fold_left
            (fun acc tm -> Float.min tm.tm_next acc)
            infinity timers
        in
        let until = Float.max 0.0 (next -. Unix.gettimeofday ()) in
        if timeout < 0.0 then until else Float.min timeout until
  in
  let arr =
    Array.of_list
      (Hashtbl.fold
         (fun _ e acc -> if e.e_read || e.e_write then e :: acc else acc)
         t.table [])
  in
  let fds = Array.map (fun e -> e.e_num) arr in
  let bits = Array.map bits_of arr in
  let res = raw_poll fds bits (timeout_ms timeout) in
  Array.iteri (fun i r -> if r <> 0 then dispatch t arr.(i) r) res;
  run_due_timers t;
  run_jobs t

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun fd ->
        match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      [ t.wake_r; t.wake_w ]
  end

let writev fd slices = raw_writev fd slices

(* The stub reports POLLIN, POLLERR, POLLHUP and POLLNVAL all as the
   read bit, so "anything pending" covers data, EOF and a dead fd. *)
let input_pending fd = (raw_poll [| fd_int fd |] [| ev_read |] 0).(0) <> 0
