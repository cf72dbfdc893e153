/* The two socket calls of Http's connection loop that the Unix module
   cannot make: accept4 with SOCK_NONBLOCK | SOCK_CLOEXEC, and send with
   MSG_MORE, so the close that follows a response puts the FIN in the
   response's last segment.  Both sockets are non-blocking, so neither
   call blocks and neither releases the runtime lock; send reads
   straight from the OCaml string for that reason.  Without
   SOCK_NONBLOCK, accept sets the two flags with fcntl; without MSG_MORE
   or MSG_NOSIGNAL, send goes without that flag (the FIN then takes a
   segment of its own, and Http ignores SIGPIPE). */

#define _GNU_SOURCE
#include <fcntl.h>
#include <sys/socket.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

#ifndef MSG_MORE
#define MSG_MORE 0
#endif
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

value statsched_http_accept(value listen_fd)
{
#ifdef SOCK_NONBLOCK
  int fd = accept4(Int_val(listen_fd), NULL, NULL, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd == -1) caml_uerror("accept", Nothing);
#else
  int fd = accept(Int_val(listen_fd), NULL, NULL);
  if (fd == -1) caml_uerror("accept", Nothing);
  fcntl(fd, F_SETFD, FD_CLOEXEC);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
#endif
  return Val_int(fd);
}

value statsched_http_send(value fd, value buf, value off, value len)
{
  ssize_t n = send(Int_val(fd), String_val(buf) + Long_val(off), Long_val(len),
                   MSG_MORE | MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n == -1) caml_uerror("send", Nothing);
  return Val_long(n);
}
