/* Poller primitives for Evloop (DESIGN.md section 13).

   The OCaml standard library exposes only select(2), whose fd_set
   representation caps usable descriptor *numbers* at FD_SETSIZE
   (1024) — far below what a keep-alive server holds open. These
   stubs provide the two readiness APIs the reactor actually wants:

     - epoll(7) on Linux: a persistent interest set, O(ready) waits.
     - poll(2) everywhere else: no FD_SETSIZE ceiling, O(n) waits.

   plus writev(2) so a response's header and body slices go to the
   socket in one system call without being concatenated first.

   Event bits shared with evloop.ml: 1 = readable, 2 = writable.
   Error/hangup conditions are folded into "readable" so the OCaml
   callback performs a read, observes EOF/ECONNRESET, and tears the
   connection down through its normal path.

   One storage stub rides along: syncfs(2), the single flush behind
   Fsutil's group commit (DESIGN.md section 7). */

#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE /* syncfs */
#endif

#include <errno.h>
#include <limits.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/uio.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#define DSVC_EV_READ 1
#define DSVC_EV_WRITE 2

/* On Unix, Unix.file_descr is an immediate int. */

CAMLprim value dsvc_fd_int(value fd) { return Val_int(Int_val(fd)); }

CAMLprim value dsvc_has_epoll(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_true;
#else
  return Val_false;
#endif
}

#ifdef __linux__

CAMLprim value dsvc_epoll_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  return Val_int(fd); /* -1 on failure: caller falls back to poll */
}

/* op: 0 = add, 1 = modify, 2 = delete. Returns 0 or -errno. */
CAMLprim value dsvc_epoll_ctl(value v_ep, value v_op, value v_fd, value v_ev)
{
  struct epoll_event ev;
  int bits = Int_val(v_ev);
  int ctl_op;
  memset(&ev, 0, sizeof ev);
  ev.events = 0;
  if (bits & DSVC_EV_READ) ev.events |= EPOLLIN;
  if (bits & DSVC_EV_WRITE) ev.events |= EPOLLOUT;
  ev.data.fd = Int_val(v_fd);
  switch (Int_val(v_op)) {
  case 0: ctl_op = EPOLL_CTL_ADD; break;
  case 1: ctl_op = EPOLL_CTL_MOD; break;
  default: ctl_op = EPOLL_CTL_DEL; break;
  }
  if (epoll_ctl(Int_val(v_ep), ctl_op, Int_val(v_fd), &ev) == -1)
    return Val_int(-errno);
  return Val_int(0);
}

#define DSVC_MAX_EVENTS 256

/* Returns a flat int array [fd0; bits0; fd1; bits1; ...]. An
   interrupted wait (EINTR) reports no events; any other failure
   raises Unix_error. */
CAMLprim value dsvc_epoll_wait(value v_ep, value v_timeout_ms)
{
  CAMLparam2(v_ep, v_timeout_ms);
  CAMLlocal1(res);
  struct epoll_event evs[DSVC_MAX_EVENTS];
  int ep = Int_val(v_ep);
  int timeout = Int_val(v_timeout_ms);
  int n, i;
  caml_release_runtime_system();
  n = epoll_wait(ep, evs, DSVC_MAX_EVENTS, timeout);
  caml_acquire_runtime_system();
  if (n == -1) {
    if (errno == EINTR) n = 0;
    else caml_uerror("epoll_wait", Nothing);
  }
  res = caml_alloc(n * 2, 0);
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP))
      bits |= DSVC_EV_READ;
    if (evs[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP))
      bits |= DSVC_EV_WRITE;
    Store_field(res, i * 2, Val_int(evs[i].data.fd));
    Store_field(res, i * 2 + 1, Val_int(bits));
  }
  CAMLreturn(res);
}

#else /* !__linux__: epoll entry points exist but report unsupported */

CAMLprim value dsvc_epoll_create(value unit)
{
  (void)unit;
  return Val_int(-1);
}

CAMLprim value dsvc_epoll_ctl(value v_ep, value v_op, value v_fd, value v_ev)
{
  (void)v_ep; (void)v_op; (void)v_fd; (void)v_ev;
  return Val_int(-ENOSYS);
}

CAMLprim value dsvc_epoll_wait(value v_ep, value v_timeout_ms)
{
  (void)v_ep; (void)v_timeout_ms;
  caml_failwith("epoll unsupported on this platform");
  return Val_unit;
}

#endif /* __linux__ */

/* poll(2) over parallel arrays: v_fds.(i) with interest bits
   v_bits.(i). Returns an int array of ready bits, same order. */
CAMLprim value dsvc_poll(value v_fds, value v_bits, value v_timeout_ms)
{
  CAMLparam3(v_fds, v_bits, v_timeout_ms);
  CAMLlocal1(res);
  mlsize_t n = Wosize_val(v_fds);
  int timeout = Int_val(v_timeout_ms);
  struct pollfd *pfds;
  mlsize_t i;
  int rc;
  if (n != Wosize_val(v_bits)) caml_invalid_argument("dsvc_poll: array sizes");
  pfds = caml_stat_alloc(sizeof(struct pollfd) * (n == 0 ? 1 : n));
  for (i = 0; i < n; i++) {
    int bits = Int_val(Field(v_bits, i));
    pfds[i].fd = Int_val(Field(v_fds, i));
    pfds[i].events = 0;
    pfds[i].revents = 0;
    if (bits & DSVC_EV_READ) pfds[i].events |= POLLIN;
    if (bits & DSVC_EV_WRITE) pfds[i].events |= POLLOUT;
  }
  caml_release_runtime_system();
  rc = poll(pfds, (nfds_t)n, timeout);
  caml_acquire_runtime_system();
  if (rc == -1 && errno != EINTR) {
    caml_stat_free(pfds);
    caml_uerror("poll", Nothing);
  }
  res = caml_alloc(n, 0);
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (rc > 0) {
      if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL))
        bits |= DSVC_EV_READ;
      if (pfds[i].revents & (POLLOUT | POLLERR | POLLHUP))
        bits |= DSVC_EV_WRITE;
    }
    Store_field(res, i, Val_int(bits));
  }
  caml_stat_free(pfds);
  CAMLreturn(res);
}

#define DSVC_MAX_IOV 16

/* Vectored write of (string, offset, length) slices. Returns bytes
   written, or -1 if the socket is full (EAGAIN/EWOULDBLOCK/EINTR:
   retry when writable again). Other errors raise Unix_error. The
   runtime lock is deliberately held across the call: the fds are
   nonblocking, so writev cannot block, and holding the lock keeps
   the OCaml string pointers stable (no allocation, no GC). */
CAMLprim value dsvc_writev(value v_fd, value v_slices)
{
  struct iovec iov[DSVC_MAX_IOV];
  mlsize_t n = Wosize_val(v_slices);
  mlsize_t i;
  ssize_t written;
  if (n > DSVC_MAX_IOV) n = DSVC_MAX_IOV;
  for (i = 0; i < n; i++) {
    value slice = Field(v_slices, i);
    iov[i].iov_base = Bytes_val(Field(slice, 0)) + Long_val(Field(slice, 1));
    iov[i].iov_len = Long_val(Field(slice, 2));
  }
  if (n == 0) return Val_long(0);
  written = writev(Int_val(v_fd), iov, (int)n);
  if (written == -1) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      return Val_long(-1);
    caml_uerror("writev", Nothing);
  }
  return Val_long(written);
}

CAMLprim value dsvc_has_syncfs(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_true;
#else
  return Val_false;
#endif
}

/* Flush every dirty page and inode of the filesystem holding [fd].
   Raises Unix_error on failure; callers check dsvc_has_syncfs first. */
CAMLprim value dsvc_syncfs(value v_fd)
{
#ifdef __linux__
  int r;
  int fd = Int_val(v_fd);
  caml_release_runtime_system();
  r = syncfs(fd);
  caml_acquire_runtime_system();
  if (r == -1) caml_uerror("syncfs", Nothing);
#else
  (void)v_fd;
  caml_unix_error(ENOSYS, "syncfs", Nothing);
#endif
  return Val_unit;
}
