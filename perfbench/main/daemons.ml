(* The served workloads: [schedsimd] on the Table 3 cluster, driven
   over real HTTP by an open-loop generator. *)

module C = Statsched_cluster
module Core = Statsched_core
module Pstats = Perfbench_lib.Pstats
module Schedule = Perfbench_lib.Schedule
module R = Perfbench_lib.Result

(* Posts per wall second at the nominal step; [--time-scale] makes this
   rate offer ρ = 0.7 to the simulated Table 3 cluster. *)
let nominal_rate = 3000.0

(* The p99 a ladder step must meet to count as sustained. *)
let latency_limit = 0.005

(* Ladder of (share of the nominal rate, share of the open-loop phase). *)
let ladder = [ (0.25, 0.15); (0.5, 0.15); (1.0, 0.5); (1.25, 0.2) ]
let nominal_step = 2

(* Closed-loop job sizes are scaled down so that the simulated cluster
   stays below saturation at the daemon's closed-loop rate. *)
let closed_size_scale = 0.125

let table3 = Core.Speeds.table3

let time_scale =
  nominal_rate /. C.Workload.arrival_rate (C.Workload.paper_default ~rho:0.7 ~speeds:table3)

let speeds_arg = Core.Speeds.to_string table3

(* A post answered later than this after it was due is lost to
   daemon-slowclient's [jobs_per_s]: far above any latency the daemon
   shows when nothing blocks it, far below the silent client's stall. *)
let on_time_deadline = 0.1

(* daemon-mixed: the ladder over the first half of the run, posts back
   to back over the second.  daemon-slowclient: the lowest rate over the
   whole run, with a silent client a fifth of the way in. *)
let plan ~seconds ~slow =
  let open_s = if slow then seconds else 0.5 *. seconds in
  let steps =
    if slow then [ { Schedule.rate = 0.25 *. nominal_rate; seconds = open_s } ]
    else
      List.map
        (fun (share, frac) -> { Schedule.rate = share *. nominal_rate; seconds = frac *. open_s })
        ladder
  in
  {
    Session.steps;
    closed_seconds = seconds -. open_s;
    closed_size_scale;
    scrape_period = 1.0;
    swap_period = 4.0;
    swap_to = ("jsq-d", "orr");
    silent_at = (if slow then [ 0.2 *. seconds ] else []);
  }

let ms x = 1e3 *. x
let us x = 1e6 *. x

(* Latency of the accepted posts (those of the nominal step unless
   [all_posts]) and of the scrapes, timed from their due times.  Reported with every run, but bounded by no gate: on the
   reference virtual machine their medians move by more than the widest
   bound the benchmark allows from one run to the next. *)
let latencies res t ~all_posts =
  let idx =
    (if all_posts then Array.init (Array.length t.Session.status) Fun.id
     else Session.indices_of_step t nominal_step)
    |> Array.to_list
    |> List.filter (fun i -> t.Session.status.(i) = 202)
    |> Array.of_list
  in
  let lat = Array.map (Session.latency_from_due t) idx in
  let tail = Pstats.tail lat in
  let reads = Session.ctl_latencies t (function Session.Metrics | Session.State -> true | _ -> false) in
  R.add res "obs.post_p50_us" "us" (us (Pstats.median lat)) ~n:(Array.length lat)
    ~note:"POST /jobs from due";
  R.add res "obs.post_tail_us" "us" (us tail.Pstats.value) ~n:tail.Pstats.n
    ~note:("POST /jobs from due, " ^ tail.Pstats.label);
  R.add res "obs.read_p99_us" "us"
    (if Array.length reads > 0 then us (Pstats.percentile reads 99.0) else nan)
    ~n:(Array.length reads) ~note:"GET /metrics and /state from due"

(* What a client and an operator see of a session beyond the bounded
   metrics: latencies, the sustained rate of the ladder, the daemon's CPU
   per post. *)
let served_figures res (s : Served.served) ~ladder =
  let t = s.Served.session in
  latencies res t ~all_posts:(Array.length ladder = 0);
  let sustained =
    Array.fold_left (fun acc r -> if r.Session.sustained then r.Session.accepted_per_s else acc) 0.0 ladder
  in
  R.add res "gen.sustained_rate" "1/s" sustained
    ~note:"accepted/s of the highest sustained ladder step (0: no ladder)";
  R.add res "obs.daemon_cpu_us_per_post" "us"
    (1e6 *. s.Served.cpu_s /. float_of_int (max 1 (Session.accepted t)))
    ~n:(Session.accepted t) ~note:"schedsimd CPU over the session per accepted post"

(* The end-to-end report of one served session. *)
(* The ladder's step reports; none for the single-rate slowclient run,
   which is not a ladder. *)
let ladder (s : Served.served) ~slow =
  let t = s.Served.session in
  if slow then [||]
  else Array.init (Array.length t.Session.sched.Schedule.steps) (Session.step_report t ~limit:latency_limit)

(* Every post and every scrape or swap is an operation; refusals,
   connection errors and non-success answers fail it. *)
let check_answers res t =
  Array.iteri
    (fun i st -> R.check res (st = 202) (Printf.sprintf "post %d answered %d" i st))
    t.Session.status;
  Array.iteri
    (fun i st -> R.check res (st = 202) (Printf.sprintf "closed-loop post %d answered %d" i st))
    t.Session.closed.Session.c_status;
  Array.iter
    (fun (c : Session.ctl) ->
      match c.Session.op with
      | Session.Silent -> ()
      | op ->
        R.check res (c.Session.status = 200)
          (Printf.sprintf "%s answered %d" (Session.op_name op) c.Session.status))
    t.Session.ctl

let report res (s : Served.served) ~slow =
  let t = s.Served.session in
  let reports = ladder s ~slow in
  Array.iter
    (fun r ->
      Printf.eprintf "  step %6.0f/s: %d posts, %d accepted, p50 %.3f ms, p99 %.3f ms, lag p99 %.3f ms%s%s\n"
        r.Session.rate r.Session.posts r.Session.accepted (ms r.Session.p50) (ms r.Session.p99)
        (ms r.Session.lag_p99)
        (if r.Session.growing then ", growing" else "")
        (if r.Session.sustained then ", sustained" else ""))
    reports;
  check_answers res t;
  if slow then
    R.add res "jobs_per_s" "1/s"
      (Session.on_time_per_s t ~deadline:on_time_deadline)
      ~n:(Array.length t.Session.status) ~note:"posts answered within 100 ms of due, per second"
  else begin
    let n = Array.length t.Session.closed.Session.c_status in
    R.add res "jobs_per_s" "1/s" (Session.closed_per_cpu_s t) ~n
      ~note:"closed-loop posts per second of schedsimd CPU time";
    R.add res "closed_posts_per_wall_s" "1/s" (Session.closed_throughput t) ~n
      ~note:"closed-loop posts per wall second (unbounded)"
  end;
  R.add res "setup_s" "s" (Pstats.median s.Served.setup) ~n:(Array.length s.Served.setup)
    ~note:"spawn to /healthz 200";
  R.add res "peak_rss_mb" "MiB" s.Served.hwm_mb ~note:"schedsimd VmHWM";
  served_figures res s ~ladder:reports

(* Generator and HTTP-layer figures of a served session (traced run). *)
let http_layers res (s : Served.served) ~ladder ~handle_post =
  let t = s.Served.session in
  served_figures res s ~ladder;
  let n = Array.length t.Session.status in
  let lag = Array.init n (Session.lateness t) in
  let from_send = Array.init n (fun i -> t.Session.fin.(i) -. t.Session.sent.(i)) in
  let base = Pstats.median from_send in
  (* Waiting behind other requests, in the generator's backlog or the
     server's accept queue: latency from due beyond the typical round trip. *)
  let hol = Array.init n (fun i -> Session.latency_from_due t i -. base) in
  let count p = Array.fold_left (fun a x -> if p x then a + 1 else a) 0 in
  let all_status =
    Array.concat
      [
        t.Session.status;
        t.Session.closed.Session.c_status;
        Array.map (fun (c : Session.ctl) -> c.Session.status) t.Session.ctl;
      ]
  in
  R.add res "gen.lag_p99_us" "us" (us (Pstats.percentile lag 99.0)) ~n;
  R.add res "gen.backlog_max" "count" (float_of_int (Array.fold_left max 0 (Session.backlog t)));
  R.add res "obs.http_transport_us" "us" (us (base -. handle_post)) ~n
    ~note:"median POST from send minus in-process handle";
  R.add res "obs.http_408" "count" (float_of_int (count (( = ) 408) all_status));
  R.add res "obs.conn_refused" "count" (float_of_int (count (( = ) (-1)) all_status));
  R.add res "obs.hol_wait_p99_us" "us" (us (Pstats.percentile hol 99.0)) ~n
    ~note:"POST from due minus the median from send"
