(* A minimal blocking HTTP/1.1 client (one connection per request, as
   the server closes every connection) and the [schedsimd] subprocess
   lifecycle: spawn, wait for health, drain, reap. *)

exception Refused

let connect port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt s Unix.TCP_NODELAY true;
     Unix.setsockopt_float s Unix.SO_RCVTIMEO 15.0;
     Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with
  | Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
    Unix.close s;
    raise Refused
  | e ->
    Unix.close s;
    raise e);
  s

let write_all s str =
  let b = Bytes.unsafe_of_string str in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write s b !off (len - !off)
  done

(* Read until the server closes; returns the status code and the body.
   The read buffer is per call: posts and control operations run on two
   domains at once. *)
let read_response s =
  let buf = Bytes.create 16384 in
  let acc = Buffer.create 512 in
  let rec loop () =
    match Unix.read s buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes acc buf 0 k;
      loop ()
  in
  loop ();
  let r = Buffer.contents acc in
  let status =
    try Scanf.sscanf r "HTTP/1.%d %d" (fun _ code -> code) with _ -> 0
  in
  let body =
    match Str_find.find r "\r\n\r\n" with
    | Some i -> String.sub r (i + 4) (String.length r - i - 4)
    | None -> ""
  in
  (status, body)

let request_on s ~meth ~path ~body =
  write_all s
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
       meth path (String.length body) body);
  read_response s

(* One request; [Error] for a connection error or timeout. *)
let request ~port ~meth ~path ~body () =
  match connect port with
  | exception (Refused | Unix.Unix_error _) -> Error `Refused
  | s ->
    Fun.protect
      ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
      (fun () ->
        match request_on s ~meth ~path ~body with
        | r -> Ok r
        | exception Unix.Unix_error _ -> Error `Io)

(* ------------------------------------------------------------------ *)
(* The daemon subprocess                                               *)

type daemon = {
  pid : int;
  port : int;
  out : in_channel;  (** the daemon's stdout *)
  spawned : float;
  healthy : float;  (** first 200 from /healthz *)
}

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let kill_quietly pid sg = try Unix.kill pid sg with Unix.Unix_error _ -> ()

(* Wait for [pid] to exit, killing it after [grace] seconds. *)
let reap ?(grace = 30.0) pid =
  let deadline = Util.now () +. grace in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Util.now () > deadline then begin
        kill_quietly pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        loop ()
      end
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let live : int list ref = ref []

let spawn ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let spawned = Util.now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) (Lazy.force devnull) w
      (Lazy.force devnull)
  in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec find_port () =
    match input_line out with
    | line -> (
      match Str_find.find line "127.0.0.1:" with
      | Some i ->
        Scanf.sscanf
          (String.sub line (i + 10) (String.length line - i - 10))
          "%d" Fun.id
      | None -> find_port ())
    | exception End_of_file -> failwith "schedsimd exited before listening"
  in
  let port = find_port () in
  let deadline = spawned +. 30.0 in
  let rec wait_healthy () =
    match request ~port ~meth:"GET" ~path:"/healthz" ~body:"" () with
    | Ok (200, _) -> Util.now ()
    | _ when Util.now () > deadline -> failwith "schedsimd never became healthy"
    | _ ->
      Unix.sleepf 0.0005;
      wait_healthy ()
  in
  let healthy = wait_healthy () in
  { pid; port; out; spawned; healthy }

let forget pid = live := List.filter (( <> ) pid) !live

(* Signal and reap: SIGTERM drains the daemon, SIGKILL does not. *)
let stop ?(signal = Sys.sigterm) d =
  kill_quietly d.pid signal;
  ignore (reap d.pid);
  forget d.pid;
  close_in_noerr d.out

(* POST /drain, then reap; returns the daemon's remaining stdout lines
   and whether it exited cleanly. *)
let drain d =
  ignore (request ~port:d.port ~meth:"POST" ~path:"/drain" ~body:"" ());
  let st = reap d.pid in
  forget d.pid;
  let rec lines acc =
    match input_line d.out with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in_noerr d.out;
  (out, st = Unix.WEXITED 0)

let kill_all () =
  List.iter
    (fun pid ->
      kill_quietly pid Sys.sigkill;
      ignore (reap ~grace:5.0 pid))
    !live;
  live := []
