(** Minimal dependency-free HTTP/1.1 server for live telemetry and the
    [schedsimd] daemon.

    A {!t} owns a loopback TCP listening socket and a background
    systhread that multiplexes the listener and every open connection
    (up to 256 at once; more wait in the kernel's listen backlog)
    through one [select] loop over non-blocking sockets.  Each request
    line and header block (plus a [Content-Length] body, if any) is
    parsed incrementally as bytes arrive; a complete request is answered
    inline from a user handler, so handlers run one at a time, on the
    server thread.  It is deliberately tiny: [Connection: close] on
    every response, no keep-alive, no TLS, no chunked encoding — just
    enough to let Prometheus or [curl] scrape a running simulation and
    to drive the daemon's control endpoints.

    Every connection carries a deadline ([?read_timeout], default 5 s).
    A client that has not sent its whole request within [read_timeout]
    of being accepted gets a 408 and is disconnected; a response the
    client has not read within [read_timeout] of being ready is dropped.
    Slow or silent clients delay only themselves: the loop serves the
    other connections meanwhile.  Header blocks are capped at 16 KiB and
    bodies at 1 MiB (413 beyond).

    Starting a server sets SIGPIPE to ignored for the whole process, so
    a client that hangs up mid-response costs only its own connection
    (the write fails with [EPIPE]) instead of killing the process.  A
    program that relied on SIGPIPE to exit quietly when its standard
    output closes sees [Sys_error] on that write instead.

    Connections are accepted non-blocking and close-on-exec in one
    [accept4], and each response is sent with [MSG_MORE], so the
    [close] that follows puts the FIN in the response's last segment
    (C stubs in [http_stubs.c]; where a flag is missing they fall back
    at compile time, with the same bytes on the wire).  Neither stub
    releases the runtime lock: the socket is non-blocking, so neither
    can block.

    Because OCaml systhreads share one domain and the select and read
    syscalls release the runtime lock, serving never runs concurrently
    with simulation code at the machine level: the handler observes a
    consistent heap and cannot perturb the run (it must not mutate
    simulation state or draw random numbers — daemon handlers that do
    mutate must synchronise with their driver explicitly). *)

type t

type response = {
  status : int;  (** e.g. [200], [404] *)
  content_type : string;  (** e.g. ["text/plain; version=0.0.4"] *)
  body : string;
}

type request = {
  meth : string;  (** ["GET"], ["POST"], ["PUT"], ... verbatim *)
  path : string;  (** request target with any query string stripped *)
  body : string;  (** ["" ] when the request carried no body *)
}

val text : ?status:int -> string -> response
(** [text body] is a [text/plain; charset=utf-8] response (default 200). *)

val json : ?status:int -> string -> response
(** [json body] is an [application/json] response (default 200). *)

val serve_requests :
  ?addr:string -> ?read_timeout:float -> port:int -> (request -> response) -> t
(** [serve_requests ~port handler] binds [addr] (default ["127.0.0.1"])
    : [port] ([port = 0] picks an ephemeral port — see {!port}), starts
    the server thread, and answers each request with [handler req].
    Method dispatch (including 404/405 semantics) is the handler's job.
    Malformed requests get a 400, requests whose headers or body exceed
    the caps a 413, and connections whose request is still incomplete
    [read_timeout] seconds after accept a 408, all without invoking
    [handler].  A handler that raises yields a 500 to the client and
    keeps the server alive.  [handler] runs on the server thread, one
    request at a time.

    @raise Unix.Unix_error if the address can't be bound (e.g. port in
    use).
    @raise Invalid_argument if [read_timeout <= 0]. *)

val serve :
  ?addr:string ->
  ?read_timeout:float ->
  port:int ->
  (string -> response option) ->
  t
(** [serve ~port routes] is {!serve_requests} specialised to read-only
    scraping: each [GET path] request is answered with [routes path]
    ([None] becomes a 404) and non-GET methods get a 405. *)

val port : t -> int
(** The bound port — the actual one when [serve] was given port 0. *)

val stop : t -> unit
(** Stop accepting, drop every connection whose request is still
    being read, let responses already being written finish (each within
    its [read_timeout] deadline), then join the server thread and close
    the listening socket.  Returns within about 0.2 s when no response
    is in flight, however many silent clients are connected; subsequent
    connections are refused.  Idempotent. *)

(** Internals exposed for white-box tests only — not a stable API. *)
module Testing : sig
  val find_headers_end : bytes -> len:int -> from:int -> int
  (** Index of the ['\r'] opening the ["\r\n\r\n"] header terminator in
      the first [len] bytes, scanning from [max 0 from]; [-1] if absent.
      Incremental callers resume at [prev_len - 3] so the terminator is
      found even when it straddles a chunk boundary. *)

  type parser
  (** The incremental request parser the server feeds each connection's
      bytes through. *)

  val parser : unit -> parser
  (** A parser that has seen no bytes. *)

  val feed : parser -> string -> (request, response) result option
  (** Append bytes received on the connection.  [None] while the request
      is incomplete; [Some (Ok req)] once the header block and declared
      body are in; [Some (Error resp)] for a request refused with a 400
      or 413 (the response the client would get). *)
end
