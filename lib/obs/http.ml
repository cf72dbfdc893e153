type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body =
  { status; content_type = "text/plain; charset=utf-8"; body }

let json ?(status = 200) body =
  { status; content_type = "application/json"; body }

type request = { meth : string; path : string; body : string }

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  thread : Thread.t;
  stopping : bool Atomic.t;
}

let reason = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let serialise { status; content_type; body } =
  String.concat ""
    [
      "HTTP/1.1 ";
      string_of_int status;
      " ";
      reason status;
      "\r\nContent-Type: ";
      content_type;
      "\r\nContent-Length: ";
      string_of_int (String.length body);
      "\r\nConnection: close\r\n\r\n";
      body;
    ]

let max_head_bytes = 16384
let max_body_bytes = 1 lsl 20

(* Connections served at once.  select(2) cannot watch a descriptor at
   or above FD_SETSIZE (1024); past this cap, new connections wait in
   the kernel's listen backlog until one closes. *)
let max_connections = 256
let listen_backlog = 128

(* Longest [select] wait, so the loop notices [stop] promptly. *)
let poll_interval = 0.2

(* Index of the '\r' opening the "\r\n\r\n" header terminator in
   [data.[0..len)], or -1.  [from] is where the scan resumes: a caller
   that already scanned a prefix restarts at [prev_len - 3] (the
   terminator may straddle the chunk boundary), so feeding a request
   byte by byte costs O(n) total instead of O(n^2) whole-buffer
   rescans. *)
let find_headers_end data ~len ~from =
  let i = ref (max 0 from) in
  let found = ref (-1) in
  while !found < 0 && !i + 3 < len do
    let j = !i in
    if
      Char.equal (Bytes.unsafe_get data j) '\r'
      && Char.equal (Bytes.unsafe_get data (j + 1)) '\n'
      && Char.equal (Bytes.unsafe_get data (j + 2)) '\r'
      && Char.equal (Bytes.unsafe_get data (j + 3)) '\n'
    then found := j
    else incr i
  done;
  !found

(* Case-insensitive "content-length" lookup over the raw header block
   (request line included; it contains no ':' before its spaces end, so
   it can never match). *)
let content_length head =
  let lower = String.lowercase_ascii head in
  let target = "content-length:" in
  let rec scan from =
    match String.index_from_opt lower from '\n' with
    | None -> Ok 0
    | Some eol ->
      let line_start = eol + 1 in
      if
        line_start + String.length target <= String.length lower
        && String.equal
             (String.sub lower line_start (String.length target))
             target
      then
        let value_start = line_start + String.length target in
        let value_end =
          match String.index_from_opt lower value_start '\r' with
          | Some e -> e
          | None -> String.length lower
        in
        let v =
          String.trim (String.sub head value_start (value_end - value_start))
        in
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | Some _ | None -> Error (text ~status:400 "bad content-length\n")
      else scan line_start
  in
  scan 0

(* [raw] is the header block without its terminator, so a request with
   no header lines holds no '\n': then the whole block is the request
   line. *)
let parse_request_line raw =
  let line =
    match String.index_opt raw '\n' with
    | None -> raw
    | Some eol -> String.sub raw 0 eol
  in
  match String.split_on_char ' ' (String.trim line) with
  | [ meth; target; _version ] ->
    (* Strip any query string: routes key on the path alone. *)
    let path =
      match String.index_opt target '?' with
      | None -> target
      | Some q -> String.sub target 0 q
    in
    Some (meth, path)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Incremental request parser                                           *)

(* The bytes of one request received so far.  [scanned] is how far the
   header-terminator scan has got; [head] holds the method, path, body
   offset and body length once the header block is complete. *)
type parser = {
  mutable data : Bytes.t;
  mutable len : int;
  mutable scanned : int;
  mutable head : (string * string * int * int) option;
}

let parser () = { data = Bytes.create 1024; len = 0; scanned = 0; head = None }

(* [None] while the request needs more bytes; [Some (Error resp)] for
   one refused with a 400 or 413. *)
let rec parse p =
  match p.head with
  | Some (meth, path, start, body_len) ->
    if p.len < start + body_len then None
    else Some (Ok { meth; path; body = Bytes.sub_string p.data start body_len })
  | None -> (
    let head_end = find_headers_end p.data ~len:p.len ~from:(p.scanned - 3) in
    p.scanned <- p.len;
    (* Without a terminator in [0, len), the block is at least
       [len - 3] bytes long. *)
    if (head_end < 0 && p.len - 3 > max_head_bytes) || head_end > max_head_bytes
    then Some (Error (text ~status:413 "headers too large\n"))
    else if head_end < 0 then None
    else
      let head = Bytes.sub_string p.data 0 head_end in
      match parse_request_line head with
      | None -> Some (Error (text ~status:400 "bad request\n"))
      | Some (meth, path) -> (
        match content_length head with
        | Error resp -> Some (Error resp)
        | Ok body_len when body_len > max_body_bytes ->
          Some (Error (text ~status:413 "body too large\n"))
        | Ok body_len ->
          p.head <- Some (meth, path, head_end + 4, body_len);
          parse p))

(* Append [src.[off..off+n)] to the request and parse what is there. *)
let feed p src off n =
  if Bytes.length p.data - p.len < n then begin
    let grown = Bytes.create (max (2 * Bytes.length p.data) (p.len + n)) in
    Bytes.blit p.data 0 grown 0 p.len;
    p.data <- grown
  end;
  Bytes.blit src off p.data p.len n;
  p.len <- p.len + n;
  parse p

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

type pending = { out : string; mutable off : int }

type phase = Reading of parser | Writing of pending

(* [deadline] bounds the phase in progress: reading the request is
   bounded from accept, writing the response from when it was ready. *)
type conn = {
  fd : Unix.file_descr;
  mutable deadline : float;
  mutable phase : phase;
}

let close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* [accept4] with [SOCK_NONBLOCK | SOCK_CLOEXEC]: one call instead of
   [Unix.accept] and the two [fcntl]s of [Unix.set_nonblock]. *)
external accept : Unix.file_descr -> Unix.file_descr = "statsched_http_accept"

(* [send] with [MSG_MORE | MSG_DONTWAIT | MSG_NOSIGNAL]: the kernel holds
   the response's tail, so the [close] that follows sends it and the FIN
   in one segment. *)
external send : Unix.file_descr -> string -> int -> int -> int
  = "statsched_http_send"

(* Read whatever has arrived on a non-blocking socket, through the
   loop's [scratch] buffer. *)
let rec read_available ~scratch fd p =
  match Unix.read fd scratch 0 (Bytes.length scratch) with
  | 0 ->
    let why =
      if Option.is_none p.head then "bad request\n" else "truncated body\n"
    in
    `Done (Error (text ~status:400 why))
  | n -> (
    match feed p scratch 0 n with
    | Some result -> `Done result
    | None -> read_available ~scratch fd p)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Wait
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_available ~scratch fd p
  | exception Unix.Unix_error (_, _, _) -> `Gone

(* Write what the socket takes of [w]; [true] while some remains.  A
   peer that has gone away (EPIPE, ECONNRESET) counts as done. *)
let rec write_pending fd w =
  let left = String.length w.out - w.off in
  left > 0
  &&
  match send fd w.out w.off left with
  | n ->
    w.off <- w.off + n;
    write_pending fd w
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_pending fd w
  | exception Unix.Unix_error (_, _, _) -> false

(* Advance [c] as far as it goes without blocking, calling [handler]
   inline once its request is complete; [false] once [c] is closed. *)
let rec progress ~scratch ~read_timeout handler c =
  match c.phase with
  | Reading p -> (
    match read_available ~scratch c.fd p with
    | `Wait -> true
    | `Gone ->
      close c.fd;
      false
    | `Done result ->
      let resp =
        match result with
        | Error resp -> resp
        | Ok req -> (
          match handler req with
          | resp -> resp
          | exception _ -> text ~status:500 "internal error\n")
      in
      c.phase <- Writing { out = serialise resp; off = 0 };
      c.deadline <- Clock.now () +. read_timeout;
      progress ~scratch ~read_timeout handler c)
  | Writing w ->
    write_pending c.fd w
    || begin
         close c.fd;
         false
       end

(* A connection past its deadline: a client still sending gets a
   best-effort 408; a response the client is not reading is dropped. *)
let expire c =
  (match c.phase with
  | Reading _ ->
    ignore
      (write_pending c.fd
         { out = serialise (text ~status:408 "request timeout\n"); off = 0 })
  | Writing _ -> ());
  close c.fd

(* One systhread multiplexes the listening socket and every open
   connection through [select], so a slow or silent client costs the
   others nothing.  After [stop], connections still reading are
   dropped at once and the loop exits when the responses already being
   written are finished or past their deadline.  The wait is capped at
   [poll_interval] because closing a descriptor does not wake a thread
   blocked in select(2). *)
let serve_loop (listen_fd, stopping, handler, read_timeout) =
  let conns = Hashtbl.create 16 in
  let step = progress ~scratch:(Bytes.create 65536) ~read_timeout handler in
  let running = ref true in
  let rec accept_all () =
    if Hashtbl.length conns < max_connections then
      match accept listen_fd with
      | fd ->
        let c =
          {
            fd;
            deadline = Clock.now () +. read_timeout;
            phase = Reading (parser ());
          }
        in
        (* The request has usually arrived by now: try it before
           paying for another select. *)
        if step c then Hashtbl.replace conns fd c;
        accept_all ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
        ->
        ()
      | exception Unix.Unix_error (_, _, _) -> running := false
  in
  while !running do
    let stop = Atomic.get stopping in
    let now = Clock.now () in
    Hashtbl.filter_map_inplace
      (fun _ c ->
        match c.phase with
        | Reading _ when stop ->
          close c.fd;
          None
        | Reading _ | Writing _ ->
          if c.deadline > now then Some c
          else begin
            expire c;
            None
          end)
      conns;
    if stop && Hashtbl.length conns = 0 then running := false
    else begin
      let reads, writes, timeout =
        Hashtbl.fold
          (fun fd c (reads, writes, timeout) ->
            let timeout = Float.min timeout (c.deadline -. now) in
            match c.phase with
            | Reading _ -> (fd :: reads, writes, timeout)
            | Writing _ -> (reads, fd :: writes, timeout))
          conns ([], [], poll_interval)
      in
      let accepting = (not stop) && Hashtbl.length conns < max_connections in
      let reads = if accepting then listen_fd :: reads else reads in
      match Unix.select reads writes [] (Float.max 0.0 timeout) with
      | readable, writable, _ ->
        let ready fd =
          match Hashtbl.find_opt conns fd with
          | Some c -> if not (step c) then Hashtbl.remove conns fd
          | None -> ()
        in
        List.iter ready readable;
        List.iter ready writable;
        if List.memq listen_fd readable then accept_all ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> running := false
    end
  done;
  Hashtbl.iter (fun _ c -> close c.fd) conns

let default_read_timeout = 5.0

let serve_requests ?(addr = "127.0.0.1") ?(read_timeout = default_read_timeout)
    ~port handler =
  if read_timeout <= 0.0 then invalid_arg "Http.serve_requests: read_timeout <= 0";
  (* A client that hangs up mid-response must surface as EPIPE on the
     write, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen listen_fd listen_backlog;
     Unix.set_nonblock listen_fd
   with e ->
     close listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let stopping = Atomic.make false in
  let thread =
    Thread.create serve_loop (listen_fd, stopping, handler, read_timeout)
  in
  { listen_fd; bound_port; thread; stopping }

let serve ?addr ?read_timeout ~port routes =
  serve_requests ?addr ?read_timeout ~port (fun req ->
      if String.equal req.meth "GET" then
        match routes req.path with
        | Some r -> r
        | None -> text ~status:404 "not found\n"
      else text ~status:405 "method not allowed\n")

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Thread.join t.thread;
    close t.listen_fd
  end

module Testing = struct
  let find_headers_end = find_headers_end

  type nonrec parser = parser

  let parser = parser
  let feed p s = feed p (Bytes.unsafe_of_string s) 0 (String.length s)
end
