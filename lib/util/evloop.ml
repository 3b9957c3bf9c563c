(* Readiness reactor behind the event-driven server (DESIGN.md §13).

   One thread owns a loop instance and calls [wait]; callbacks run on
   that thread. Other threads talk to the loop only through [post],
   which enqueues a job and wakes the poller via a self-pipe.

   Two interchangeable poller backends sit behind the same table of
   registered fds: epoll(7) where the platform has it (persistent
   interest set, O(ready) per wait), and poll(2) as the portable
   fallback (no FD_SETSIZE ceiling). [create] prefers epoll; tests pin
   a backend by name. *)

external has_epoll : unit -> bool = "dsvc_has_epoll"
external fd_int : Unix.file_descr -> int = "dsvc_fd_int"
external epoll_create : unit -> Unix.file_descr = "dsvc_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> int
  = "dsvc_epoll_ctl"

external epoll_wait : Unix.file_descr -> int -> int array = "dsvc_epoll_wait"

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

type backend = Epoll of Unix.file_descr | Poll

type timer = {
  tm_period : float;
  tm_cb : unit -> unit;
  mutable tm_next : float; (* absolute deadline *)
}

type t = {
  backend : backend;
  table : (int, entry) Hashtbl.t;
  jobs : (unit -> unit) Queue.t;
  jobs_mutex : Mutex.t;
  timers : (int, timer) Hashtbl.t;
  mutable next_timer_id : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable closed : bool;
}

let backend_name t =
  match t.backend with Epoll _ -> "epoll" | Poll -> "poll"

let bits_of entry =
  (if entry.e_read then ev_read else 0)
  lor if entry.e_write then ev_write else 0

let ctl_check what rc =
  if rc < 0 then
    failwith (Printf.sprintf "Evloop.%s: epoll_ctl failed (errno %d)" what (-rc))

let choose_backend = function
  | Some "poll" -> Poll
  | Some "epoll" | None ->
      if has_epoll () then begin
        let ep = epoll_create () in
        if fd_int ep >= 0 then Epoll ep else Poll
      end
      else Poll
  | Some other ->
      failwith
        (Printf.sprintf "Evloop.create: backend %S: expected epoll or poll"
           other)

let create ?backend () =
  let backend = choose_backend backend in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      backend;
      table = Hashtbl.create 64;
      jobs = Queue.create ();
      jobs_mutex = Mutex.create ();
      timers = Hashtbl.create 4;
      next_timer_id = 0;
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
  (match backend with
  | Epoll ep -> ctl_check "create" (epoll_ctl ep 0 wake_r ev_read)
  | Poll -> ());
  t

let add t fd ~read ~write cb =
  let entry =
    { e_num = fd_int fd; e_read = read; e_write = write; e_cb = cb }
  in
  Hashtbl.replace t.table entry.e_num entry;
  match t.backend with
  | Epoll ep -> ctl_check "add" (epoll_ctl ep 0 fd (bits_of entry))
  | Poll -> ()

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.table (fd_int fd) with
  | None -> ()
  | Some entry ->
      if entry.e_read <> read || entry.e_write <> write then begin
        entry.e_read <- read;
        entry.e_write <- write;
        match t.backend with
        | Epoll ep -> ctl_check "modify" (epoll_ctl ep 1 fd (bits_of entry))
        | Poll -> ()
      end

let remove t fd =
  let num = fd_int fd in
  if Hashtbl.mem t.table num then begin
    Hashtbl.remove t.table num;
    match t.backend with
    | Epoll ep ->
        (* Best effort: a descriptor closed before deregistration has
           already left the epoll set. *)
        ignore (epoll_ctl ep 2 fd 0)
    | Poll -> ()
  end

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
  let id = t.next_timer_id in
  t.next_timer_id <- id + 1;
  Hashtbl.replace t.timers id
    { tm_period = period; tm_cb = cb; tm_next = Unix.gettimeofday () +. period };
  id

let cancel_timer t id = Hashtbl.remove t.timers id

let next_timer_deadline t =
  Hashtbl.fold
    (fun _ tm acc -> Float.min tm.tm_next acc)
    t.timers infinity

let run_due_timers t =
  if Hashtbl.length t.timers = 0 then 0
  else begin
    let now = Unix.gettimeofday () in
    let due =
      Hashtbl.fold
        (fun _ tm acc -> if tm.tm_next <= now then tm :: acc else acc)
        t.timers []
    in
    List.iter
      (fun tm ->
        tm.tm_next <- now +. tm.tm_period;
        tm.tm_cb ())
      due;
    List.length due
  end

let run_jobs t =
  let pending = Queue.create () in
  Mutex.lock t.jobs_mutex;
  Queue.transfer t.jobs pending;
  Mutex.unlock t.jobs_mutex;
  let n = Queue.length pending in
  Queue.iter (fun job -> job ()) pending;
  n

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
  let n = ref 0 in
  if bits land ev_read <> 0 && entry.e_read && live () then begin
    incr n;
    entry.e_cb `Read
  end;
  if bits land ev_write <> 0 && entry.e_write && live () then begin
    incr n;
    entry.e_cb `Write
  end;
  !n

let timeout_ms timeout =
  if timeout < 0.0 then -1 else int_of_float (Float.ceil (timeout *. 1000.0))

let wait t ~timeout =
  let dispatched = ref (run_jobs t) in
  (* An armed timer caps the poll: the loop must wake for its
     deadline even when no fd turns ready. Timer-free loops keep the
     caller's timeout untouched (and read no clock). *)
  let timeout =
    if Hashtbl.length t.timers = 0 then timeout
    else begin
      let until = Float.max 0.0 (next_timer_deadline t -. Unix.gettimeofday ()) in
      if timeout < 0.0 then until else Float.min timeout until
    end
  in
  (match t.backend with
  | Epoll ep ->
      let evs = epoll_wait ep (timeout_ms timeout) in
      let n = Array.length evs / 2 in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt t.table evs.(i * 2) with
        | Some entry -> dispatched := !dispatched + dispatch t entry evs.((i * 2) + 1)
        | None -> ()
      done
  | Poll ->
      let entries =
        Hashtbl.fold
          (fun _ e acc -> if e.e_read || e.e_write then e :: acc else acc)
          t.table []
      in
      let arr = Array.of_list entries in
      let fds = Array.map (fun e -> e.e_num) arr in
      let bits = Array.map bits_of arr in
      let res = raw_poll fds bits (timeout_ms timeout) in
      Array.iteri
        (fun i r -> if r <> 0 then dispatched := !dispatched + dispatch t arr.(i) r)
        res);
  dispatched := !dispatched + run_due_timers t;
  dispatched := !dispatched + run_jobs t;
  !dispatched

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.backend with
    | Epoll ep -> (
        match Unix.close ep with () -> () | exception Unix.Unix_error _ -> ())
    | Poll -> ());
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
