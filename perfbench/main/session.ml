(* One load session against a running daemon: an open-loop phase of
   job posts at due times fixed in advance, on a domain of their own,
   then a closed-loop phase in which that domain and the calling one post
   back to back.  Control operations (scrapes, policy swaps, a silent
   client) run on the calling domain throughout.  In
   the open-loop phase every post is timed from its due time, so a stall
   delays the latency of everything queued behind it; in the closed-loop
   phase the daemon's own speed sets how many posts it takes. *)

module Pstats = Perfbench_lib.Pstats
module Schedule = Perfbench_lib.Schedule

type op = Metrics | State | Swap of string | Silent

let op_name = function
  | Metrics -> "metrics"
  | State -> "state"
  | Swap _ -> "policy"
  | Silent -> "silent"

type plan = {
  steps : Schedule.step list;  (** the open-loop phase *)
  closed_seconds : float;  (** the closed-loop phase that follows it *)
  closed_size_scale : float;  (** closed-loop sizes are the open loop's times this *)
  scrape_period : float;  (** between scrapes, alternating /metrics and /state *)
  swap_period : float;  (** between PUT /policy swaps *)
  swap_to : string * string;  (** the swap alternates to [fst], then back to [snd] *)
  silent_at : float list;  (** when a client connects and sends nothing *)
}

type ctl = { due : float; op : op; mutable sent : float; mutable fin : float; mutable status : int }

(* The closed-loop phase: each client's posts in the order sent. *)
type closed = {
  start : float;  (** wall time the first post went out *)
  cpu : float;  (** the daemon's CPU seconds from the phase's start to its last answer *)
  c_sent : float array;
  c_fin : float array;
  c_status : int array;
}

type t = {
  sched : Schedule.t;
  t0 : float;  (** wall time of schedule offset 0 *)
  sent : float array;
  fin : float array;
  status : int array;  (** HTTP status; -1 refused, -2 connection error *)
  closed : closed;
  ctl : ctl array;
}

(* Sleep until [t] (control operations, whose lateness matters less). *)
let sleep_until t =
  let d = t -. Util.now () in
  if d > 0.0 then Unix.sleepf d

(* Spin until [t].  The post generator never sleeps: on a virtual
   machine a halted vCPU can take milliseconds to wake for a timer, and
   that would show up as generator lateness. *)
let spin_until t =
  while Util.now () < t do
    Domain.cpu_relax ()
  done

let code = function Ok (st, _) -> st | Error `Refused -> -1 | Error `Io -> -2

let control_ops plan ~until =
  let scrapes =
    Schedule.periodic ~period:plan.scrape_period ~until
    |> Array.to_list
    |> List.mapi (fun i due -> (due, if i mod 2 = 0 then Metrics else State))
  in
  let swaps =
    Schedule.periodic ~period:plan.swap_period ~until
    |> Array.to_list
    |> List.mapi (fun i due ->
           (due, Swap (if i mod 2 = 0 then fst plan.swap_to else snd plan.swap_to)))
  in
  let silents = List.map (fun due -> (due, Silent)) plan.silent_at in
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (scrapes @ swaps @ silents)
  |> List.map (fun (due, op) -> { due; op; sent = nan; fin = nan; status = 0 })
  |> Array.of_list

let post ~port body = code (Client.request ~port ~meth:"POST" ~path:"/jobs" ~body ())

(* One client's share of the closed-loop phase. *)
type poster = {
  size : unit -> float;
  p_sent : Util.Fbuf.t;
  p_fin : Util.Fbuf.t;
  p_status : Util.Ibuf.t;
}

let poster size =
  { size; p_sent = Util.Fbuf.create (); p_fin = Util.Fbuf.create (); p_status = Util.Ibuf.create () }

(* Posts back to back until [stop]. *)
let post_until ~port p stop =
  while Util.now () < stop do
    let body = Printf.sprintf "%.17g" (p.size ()) in
    Util.Fbuf.push p.p_sent (Util.now ());
    let st = post ~port body in
    Util.Fbuf.push p.p_fin (Util.now ());
    Util.Ibuf.push p.p_status st
  done

(* The control operations at their due times.  Inside the closed-loop
   phase [start, stop) this client also posts back to back in the gaps
   between them. *)
let run_control ~port ~t0 ~poster:p ~start ~stop ctl =
  let fill until =
    let until = Float.min until stop in
    if until > start && Util.now () < until then begin
      sleep_until start;
      post_until ~port p until
    end
  in
  Array.iter
    (fun (c : ctl) ->
      fill (t0 +. c.due);
      sleep_until (t0 +. c.due);
      c.sent <- Util.now ();
      let r =
        match c.op with
        | Metrics -> Client.request ~port ~meth:"GET" ~path:"/metrics" ~body:"" ()
        | State -> Client.request ~port ~meth:"GET" ~path:"/state" ~body:"" ()
        | Swap name -> Client.request ~port ~meth:"PUT" ~path:"/policy" ~body:name ()
        | Silent -> (
          (* Connect, send nothing, and wait for the server to give up. *)
          match Client.connect port with
          | exception (Client.Refused | Unix.Unix_error _) -> Error `Refused
          | s ->
            Fun.protect
              ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
              (fun () ->
                match Client.read_response s with
                | r -> Ok r
                | exception Unix.Unix_error _ -> Error `Io))
      in
      c.fin <- Util.now ();
      c.status <- code r)
    ctl;
  fill stop

let merge ~start ~cpu ps =
  let all f = Array.concat (List.map f ps) in
  let c_sent = all (fun p -> Util.Fbuf.contents p.p_sent) in
  {
    start = Array.fold_left Float.min (if Array.length c_sent = 0 then start else infinity) c_sent;
    cpu;
    c_sent;
    c_fin = all (fun p -> Util.Fbuf.contents p.p_fin);
    c_status = all (fun p -> Util.Ibuf.contents p.p_status);
  }

(* The open-loop posts run on a domain of their own, which then joins
   the closed-loop phase; the calling domain runs the control operations
   and posts between them in the closed-loop phase.  Each client samples
   its closed-loop sizes from a stream of its own.  [cpu ()] reads the
   daemon's CPU time, at the start of the closed-loop phase and after it. *)
let run ~port ~seed ~cpu plan =
  let sched = Schedule.posts ~seed plan.steps in
  let open_s = Schedule.duration sched in
  let until = open_s +. plan.closed_seconds in
  let ctl = control_ops plan ~until in
  let closed_poster k = poster (Schedule.sizes ~seed ~stream:k ~scale:plan.closed_size_scale) in
  let n = Array.length sched.Schedule.due in
  let sent = Array.make n nan and fin = Array.make n nan and status = Array.make n 0 in
  let bodies = Array.map (Printf.sprintf "%.17g") sched.Schedule.size in
  let t0 = Util.now () +. 0.05 in
  let start = t0 +. open_s and stop = t0 +. until in
  let posts =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          spin_until (t0 +. sched.Schedule.due.(i));
          sent.(i) <- Util.now ();
          status.(i) <- post ~port bodies.(i);
          fin.(i) <- Util.now ()
        done;
        let p = closed_poster 0 in
        spin_until start;
        let cpu0 = cpu () in
        post_until ~port p stop;
        (p, cpu0))
  in
  let ctl_poster = closed_poster 1 in
  run_control ~port ~t0 ~poster:ctl_poster ~start ~stop ctl;
  let p, cpu0 = Domain.join posts in
  let closed = merge ~start ~cpu:(cpu () -. cpu0) [ p; ctl_poster ] in
  { sched; t0; sent; fin; status; closed; ctl }

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)

let latency_from_due t i = t.fin.(i) -. (t.t0 +. t.sched.Schedule.due.(i))
let lateness t i = t.sent.(i) -. (t.t0 +. t.sched.Schedule.due.(i))

(* Posts already due but not yet sent when post [i] went out. *)
let backlog t =
  let due = t.sched.Schedule.due in
  let n = Array.length due in
  Array.init n (fun i ->
      let at = t.sent.(i) -. t.t0 in
      (* last index with due <= at, by binary search *)
      let lo = ref i and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if due.(mid) <= at then lo := mid else hi := mid - 1
      done;
      !lo - i)

let indices_of_step t k =
  let acc = ref [] in
  Array.iteri (fun i s -> if s = k then acc := i :: !acc) t.sched.Schedule.step;
  Array.of_list (List.rev !acc)

type step_report = {
  rate : float;
  posts : int;
  accepted : int;
  failed : int;
  p50 : float;  (** seconds, from due *)
  p99 : float;
  lag_p99 : float;  (** generator lateness *)
  growing : bool;
  accepted_per_s : float;
  sustained : bool;
}

(* A step is sustained when its p99 meets [limit], nothing failed, and
   neither the generator's backlog nor its lateness grew over the step:
   the median backlog of its last quarter is within one post of its first
   quarter's, and the median lateness of its last quarter within [limit]. *)
let step_report t ~limit k =
  let idx = indices_of_step t k in
  let step = t.sched.Schedule.steps.(k) in
  let posts = Array.length idx in
  let accepted = Array.fold_left (fun a i -> if t.status.(i) = 202 then a + 1 else a) 0 idx in
  (* A refused or failed post misses the limit whatever its latency. *)
  let lat = Array.map (fun i -> if t.status.(i) = 202 then latency_from_due t i else infinity) idx in
  let bl = backlog t in
  let q = max 1 (posts / 4) in
  let part f lo hi = Array.init (hi - lo) (fun j -> f idx.(lo + j)) in
  let fl a = Array.map float_of_int a in
  let growing =
    posts >= 8
    && (let first_bl = Pstats.median (fl (part (fun i -> bl.(i)) 0 q)) in
        let last_bl = Pstats.median (fl (part (fun i -> bl.(i)) (posts - q) posts)) in
        let last_lag = Pstats.median (part (lateness t) (posts - q) posts) in
        last_bl > first_bl +. 1.0 || last_lag > limit)
  in
  let lag99 = if posts > 0 then Pstats.percentile (Array.map (lateness t) idx) 99.0 else nan in
  let p50 = if posts > 0 then Pstats.median lat else nan in
  let p99 = if posts > 0 then Pstats.percentile lat 99.0 else nan in
  let failed = posts - accepted in
  {
    rate = step.Schedule.rate;
    posts;
    accepted;
    failed;
    p50;
    p99;
    lag_p99 = lag99;
    growing;
    accepted_per_s = float_of_int accepted /. step.Schedule.seconds;
    sustained = posts > 0 && failed = 0 && p99 <= limit && not growing;
  }

let count_202 = Array.fold_left (fun a s -> if s = 202 then a + 1 else a) 0

(* Accepted posts of both phases. *)
let accepted t = count_202 t.status + count_202 t.closed.c_status

(* Accepted posts per second of the closed-loop phase, from its first
   post to its last answer. *)
let closed_throughput t =
  let c = t.closed in
  let last = Array.fold_left Float.max c.start c.c_fin in
  float_of_int (count_202 c.c_status) /. (last -. c.start)

(* Accepted closed-loop posts per second of the daemon's CPU time. *)
let closed_per_cpu_s t = float_of_int (count_202 t.closed.c_status) /. t.closed.cpu

(* Open-loop posts accepted within [deadline] of their due time, per
   second of the schedule. *)
let on_time_per_s t ~deadline =
  let ok = ref 0 in
  Array.iteri (fun i st -> if st = 202 && latency_from_due t i <= deadline then incr ok) t.status;
  float_of_int !ok /. Schedule.duration t.sched

let ctl_latencies t pred =
  Array.to_list t.ctl
  |> List.filter (fun (c : ctl) -> pred c.op)
  |> List.map (fun (c : ctl) -> c.fin -. (t.t0 +. c.due))
  |> Array.of_list

(* Record the session as spans: one per ladder step and one for the
   closed-loop phase, one per request. *)
let to_spans spans t =
  let steps = t.sched.Schedule.steps in
  let step_ids =
    Array.mapi
      (fun k s ->
        let start = t.t0 +. t.sched.Schedule.step_start.(k) in
        Perfbench_lib.Spans.add spans (Printf.sprintf "gen.step.%g" s.Schedule.rate) ~start
          ~stop:(start +. s.Schedule.seconds))
      steps
  in
  Array.iteri
    (fun i k ->
      ignore
        (Perfbench_lib.Spans.add spans ~parent:step_ids.(k) "http.post" ~start:t.sent.(i)
           ~stop:t.fin.(i)))
    t.sched.Schedule.step;
  let c = t.closed in
  let closed_id =
    Perfbench_lib.Spans.add spans "gen.closed" ~start:c.start
      ~stop:(Array.fold_left Float.max c.start c.c_fin)
  in
  Array.iteri
    (fun i start ->
      ignore
        (Perfbench_lib.Spans.add spans ~parent:closed_id "http.post" ~start ~stop:c.c_fin.(i) : int))
    c.c_sent;
  Array.iter
    (fun (c : ctl) ->
      ignore (Perfbench_lib.Spans.add spans ("http." ^ op_name c.op) ~start:c.sent ~stop:c.fin : int))
    t.ctl
