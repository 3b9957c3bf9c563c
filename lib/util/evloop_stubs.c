/* Poller primitives for Evloop (DESIGN.md section 13).

   The OCaml standard library exposes only select(2), whose fd_set
   representation caps usable descriptor *numbers* at FD_SETSIZE
   (1024) — far below what a keep-alive server holds open. These
   stubs provide poll(2), which has no FD_SETSIZE ceiling, plus
   writev(2) so a response's header and body slices go to the
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
#include <poll.h>
#include <stdlib.h>
#include <sys/uio.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#define DSVC_EV_READ 1
#define DSVC_EV_WRITE 2

/* On Unix, Unix.file_descr is an immediate int. */

CAMLprim value dsvc_fd_int(value fd) { return Val_int(Int_val(fd)); }

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
