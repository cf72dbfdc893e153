open Test_util
module Engine = Statsched_des.Engine
module Q = Statsched_queueing
module Job = Q.Job
module Rng = Statsched_prng.Rng

let job_basics () =
  let j = Job.create ~id:1 ~size:10.0 ~arrival:5.0 in
  Alcotest.(check bool) "not completed" false (Job.is_completed j);
  j.Job.completion <- 25.0;
  Alcotest.(check bool) "completed" true (Job.is_completed j);
  check_float "response time" 20.0 (Job.response_time j);
  check_float "response ratio" 2.0 (Job.response_ratio j)

let job_validation () =
  Alcotest.check_raises "size <= 0" (Invalid_argument "Job.create: size <= 0")
    (fun () -> ignore (Job.create ~id:1 ~size:0.0 ~arrival:0.0));
  Alcotest.check_raises "negative arrival" (Invalid_argument "Job.create: arrival < 0")
    (fun () -> ignore (Job.create ~id:1 ~size:1.0 ~arrival:(-1.0)));
  let j = Job.create ~id:1 ~size:1.0 ~arrival:0.0 in
  Alcotest.check_raises "response before completion"
    (Invalid_argument "Job.response_time: not completed") (fun () ->
      ignore (Job.response_time j))

(* Drive a server implementation with an explicit trace of
   (arrival_time, size) and return the completed jobs in completion
   order.  [actions] are (time, f) pairs calling [f server] at [time],
   after any arrival at the same instant. *)
let drive ?(actions = []) ?(store = Q.Job_store.create ()) ~make_server trace =
  let engine = Engine.create () in
  let completed = ref [] in
  let server =
    make_server ~engine ~store ~on_departure:(fun slot ->
        completed := job_of_slot store slot :: !completed)
  in
  List.iteri
    (fun i (at, size) ->
      ignore
        (Engine.schedule_at engine ~time:at (fun _ ->
             server.Q.Server_intf.submit (Q.Job_store.add store ~id:i ~size ~arrival:at))))
    trace;
  List.iter
    (fun (at, f) -> ignore (Engine.schedule_at engine ~time:at (fun _ -> f server)))
    actions;
  Engine.run engine;
  List.rev !completed

(* Lexicographic order on (arrival, size) trace entries. *)
let compare_arrivals (a1, s1) (a2, s2) =
  match Float.compare a1 a2 with 0 -> Float.compare s1 s2 | c -> c

let ps ?(speed = 1.0) () ~engine ~store ~on_departure =
  Q.Ps_server.serve ~engine ~speed ~store ~on_departure ()

let serial ?(speed = 1.0) order () ~engine ~store ~on_departure =
  Q.Serial_server.create ~engine ~speed ~order ~store ~on_departure ()

let rr ?speed ?(quantum = 0.001) () = serial ?speed (Q.Serial_server.Rr quantum) ()

let fcfs ?speed () = serial ?speed Q.Serial_server.Fcfs ()

let srpt ?speed () = serial ?speed Q.Serial_server.Srpt ()

let ps_lone_job () =
  (* A single job on an idle server finishes after size/speed. *)
  let jobs = drive ~make_server:(ps ~speed:2.0 ()) [ (1.0, 10.0) ] in
  match jobs with
  | [ j ] ->
    check_float ~eps:1e-9 "completion" 6.0 j.Job.completion;
    check_float ~eps:1e-9 "start" 1.0 j.Job.start
  | _ -> Alcotest.fail "expected one job"

let ps_two_equal_jobs_share () =
  (* Two size-10 jobs arriving together on speed 1: each runs at rate 1/2,
     both finish at t = 20. *)
  let jobs = drive ~make_server:(ps ()) [ (0.0, 10.0); (0.0, 10.0) ] in
  match jobs with
  | [ a; b ] ->
    check_float ~eps:1e-6 "first completion" 20.0 a.Job.completion;
    check_float ~eps:1e-6 "second completion" 20.0 b.Job.completion
  | _ -> Alcotest.fail "expected two jobs"

let ps_short_job_preempts () =
  (* Size-10 job at t=0; size-2 job at t=4.  From t=4 both share: the
     short job needs 2 units at rate 1/2 -> finishes at t=8.  The long job
     has 6 remaining at t=4, gets 2 by t=8, then runs alone: finishes at
     t=12. *)
  let jobs = drive ~make_server:(ps ()) [ (0.0, 10.0); (4.0, 2.0) ] in
  match List.sort (fun a b -> Float.compare a.Job.completion b.Job.completion) jobs with
  | [ short; long ] ->
    check_float ~eps:1e-6 "short job completion" 8.0 short.Job.completion;
    check_float ~eps:1e-6 "long job completion" 12.0 long.Job.completion
  | _ -> Alcotest.fail "expected two jobs"

let ps_three_way_sharing () =
  (* Hand-computed: jobs (t=0, size 6), (t=0, size 3), (t=3, size 1).
     [0,3): two jobs at rate 1/2 -> remaining 4.5 and 1.5.
     [3,?): three jobs at rate 1/3. Job3 (1.0) finishes after 3 units:
     t=6; job2 has 1.5-1=0.5 left, finishes at 6 + 0.5*2 = 7; job1 has
     4.5-1-0.5=3 left at t=7... let me recompute: at t=6: job1 4.5-1=3.5,
     job2 0.5. [6,7): two jobs rate 1/2, job2 done at t=7, job1 3.0 left.
     [7,10): alone, done at t=10. *)
  let jobs = drive ~make_server:(ps ()) [ (0.0, 6.0); (0.0, 3.0); (3.0, 1.0) ] in
  let by_size s = List.find (fun j -> Float.equal j.Job.size s) jobs in
  check_float ~eps:1e-6 "size-1 job" 6.0 (by_size 1.0).Job.completion;
  check_float ~eps:1e-6 "size-3 job" 7.0 (by_size 3.0).Job.completion;
  check_float ~eps:1e-6 "size-6 job" 10.0 (by_size 6.0).Job.completion

let ps_work_conservation () =
  (* Work done equals total size once everything completes. *)
  let engine = Engine.create () in
  let server = Q.Ps_server.create ~engine ~speed:3.0 ~on_departure:(fun _ -> ()) () in
  let total = ref 0.0 in
  let g = rng () in
  for i = 1 to 200 do
    let at = Rng.float g *. 100.0 in
    let size = 0.1 +. (Rng.float g *. 5.0) in
    total := !total +. size;
    ignore
      (Engine.schedule_at engine ~time:at (fun _ ->
           Q.Ps_server.submit server (Job.create ~id:i ~size ~arrival:at)))
  done;
  Engine.run engine;
  Alcotest.(check int) "all jobs completed" 200 (Q.Ps_server.completed server);
  check_close ~rel:1e-6 "work conservation" !total (Q.Ps_server.work_done server);
  Alcotest.(check int) "server drained" 0 (Q.Ps_server.in_system server)

let ps_utilization () =
  (* One job of size 5 on speed 1, observed over [0, 10): utilization 0.5. *)
  let engine = Engine.create () in
  let server = Q.Ps_server.create ~engine ~speed:1.0 ~on_departure:(fun _ -> ()) () in
  ignore
    (Engine.schedule_at engine ~time:0.0 (fun _ ->
         Q.Ps_server.submit server (Job.create ~id:1 ~size:5.0 ~arrival:0.0)));
  Engine.run ~until:10.0 engine;
  check_float ~eps:1e-9 "busy half the time" 0.5 (Q.Ps_server.utilization server)

let ps_reset_stats () =
  let engine = Engine.create () in
  let server = Q.Ps_server.create ~engine ~speed:1.0 ~on_departure:(fun _ -> ()) () in
  ignore
    (Engine.schedule_at engine ~time:0.0 (fun _ ->
         Q.Ps_server.submit server (Job.create ~id:1 ~size:2.0 ~arrival:0.0)));
  Engine.run ~until:2.0 engine;
  Q.Ps_server.reset_stats server;
  Engine.run ~until:4.0 engine;
  Alcotest.(check int) "completed counter reset" 0 (Q.Ps_server.completed server);
  check_float ~eps:1e-9 "idle after reset" 0.0 (Q.Ps_server.utilization server)

let ps_invalid_speed () =
  let engine = Engine.create () in
  Alcotest.check_raises "speed <= 0" (Invalid_argument "Ps_server.create: speed <= 0")
    (fun () ->
      ignore (Q.Ps_server.create ~engine ~speed:0.0 ~on_departure:(fun _ -> ()) ()))

let fcfs_ordering () =
  (* FCFS: jobs complete strictly in arrival order. *)
  let jobs =
    drive ~make_server:(fcfs ~speed:2.0 ()) [ (0.0, 4.0); (0.5, 1.0); (1.0, 1.0) ]
  in
  match jobs with
  | [ a; b; c ] ->
    check_float ~eps:1e-9 "first done at 2" 2.0 a.Job.completion;
    check_float ~eps:1e-9 "second done at 2.5" 2.5 b.Job.completion;
    check_float ~eps:1e-9 "third done at 3" 3.0 c.Job.completion
  | _ -> Alcotest.fail "expected three jobs"

let fcfs_head_of_line_blocking () =
  (* The PS advantage the paper assumes: under FCFS a tiny job behind a
     huge one waits; under PS it overtakes. *)
  let trace = [ (0.0, 100.0); (1.0, 1.0) ] in
  let small_of jobs = List.find (fun j -> Float.equal j.Job.size 1.0) jobs in
  let fcfs_small = small_of (drive ~make_server:(fcfs ()) trace) in
  let ps_small = small_of (drive ~make_server:(ps ()) trace) in
  Alcotest.(check bool)
    (Printf.sprintf "PS %.1f beats FCFS %.1f for the small job"
       ps_small.Job.completion fcfs_small.Job.completion)
    true
    (ps_small.Job.completion < fcfs_small.Job.completion /. 10.0)

let rr_single_job () =
  let jobs = drive ~make_server:(rr ~speed:2.0 ~quantum:0.5 ()) [ (0.0, 10.0) ] in
  match jobs with
  | [ j ] -> check_float ~eps:1e-9 "runs at full speed alone" 5.0 j.Job.completion
  | _ -> Alcotest.fail "expected one job"

let rr_interleaving () =
  (* Two size-2 jobs, quantum 1, speed 1: slices A B A B; A done at t=3,
     B at t=4. *)
  let jobs = drive ~make_server:(rr ~quantum:1.0 ()) [ (0.0, 2.0); (0.0, 2.0) ] in
  match jobs with
  | [ a; b ] ->
    check_float ~eps:1e-9 "first job" 3.0 a.Job.completion;
    check_float ~eps:1e-9 "second job" 4.0 b.Job.completion
  | _ -> Alcotest.fail "expected two jobs"

let rr_converges_to_ps () =
  (* With a small quantum the RR completion times approach PS on the same
     trace. *)
  let g = rng () in
  let trace =
    List.init 40 (fun _ ->
        (Rng.float g *. 50.0, 0.5 +. (Rng.float g *. 4.0)))
  in
  let trace = List.sort compare_arrivals trace in
  let ps_jobs = drive ~make_server:(ps ()) trace in
  let rr_jobs = drive ~make_server:(rr ~quantum:0.01 ()) trace in
  let completion_by_id jobs =
    let tbl = Hashtbl.create 64 in
    List.iter (fun j -> Hashtbl.replace tbl j.Job.id j.Job.completion) jobs;
    tbl
  in
  let ps_c = completion_by_id ps_jobs and rr_c = completion_by_id rr_jobs in
  Alcotest.(check int) "same job count" (List.length ps_jobs) (List.length rr_jobs);
  Hashtbl.iter
    (fun id pc ->
      let rc = Hashtbl.find rr_c id in
      Alcotest.(check bool)
        (Printf.sprintf "job %d: PS %.3f vs RR %.3f" id pc rc)
        true
        (abs_float (pc -. rc) < 0.6))
    ps_c

let rr_work_conservation () =
  let engine = Engine.create () in
  let store = Q.Job_store.create () in
  let server = rr ~quantum:0.25 () ~engine ~store ~on_departure:(fun _ -> ()) in
  let total = ref 0.0 in
  for i = 1 to 50 do
    let size = 0.3 +. (0.1 *. float_of_int i) in
    total := !total +. size;
    ignore
      (Engine.schedule_at engine ~time:(float_of_int i) (fun _ ->
           server.Q.Server_intf.submit
             (Q.Job_store.add store ~id:i ~size ~arrival:(float_of_int i))))
  done;
  Engine.run engine;
  Alcotest.(check int) "all complete" 50 (server.Q.Server_intf.completed ());
  check_close ~rel:1e-6 "work conserved" !total (server.Q.Server_intf.work_done ())

let server_intf_coercion () =
  let engine = Engine.create () in
  let store = Q.Job_store.create () in
  let s = ps ~speed:2.5 () ~engine ~store ~on_departure:(fun _ -> ()) in
  check_float "speed exposed" 2.5 s.Q.Server_intf.speed;
  Alcotest.(check string) "discipline" "PS" s.Q.Server_intf.discipline;
  let f = fcfs () ~engine ~store ~on_departure:(fun _ -> ()) in
  Alcotest.(check string) "fcfs discipline" "FCFS" f.Q.Server_intf.discipline

(* M/G/1-PS insensitivity: mean response time depends on the size
   distribution only through its mean: T = 1/(mu - lambda).  Check for
   exponential sizes against theory. *)
let mm1_ps_theory ?(rho = 0.6) ?(horizon = 150_000.0) ~size_dist () =
  let engine = Engine.create () in
  let g = rng ~seed:99L () in
  let mean_size = Statsched_dist.Distribution.mean size_dist in
  let lambda = rho /. mean_size in
  let w = Statsched_stats.Welford.create () in
  let warmup = horizon /. 5.0 in
  let server =
    Q.Ps_server.create ~engine ~speed:1.0
      ~on_departure:(fun j ->
        if j.Job.arrival >= warmup then Statsched_stats.Welford.add w (Job.response_time j))
      ()
  in
  let id = ref 0 in
  let rec arrive () =
    let gap = Statsched_dist.Exponential.sample ~rate:lambda g in
    ignore
      (Engine.schedule engine ~delay:gap (fun e ->
           incr id;
           let size = Statsched_dist.Distribution.sample size_dist g in
           Q.Ps_server.submit server (Job.create ~id:!id ~size ~arrival:(Engine.now e));
           arrive ()))
  in
  arrive ();
  Engine.run ~until:horizon engine;
  let expected = mean_size /. (1.0 -. rho) in
  check_close ~rel:0.08 "M/G/1-PS mean response time" expected
    (Statsched_stats.Welford.mean w)

let theory_saturation_and_domain () =
  let module T = Q.Theory in
  let is_nan = Float.is_nan in
  (* rho >= 1: every mean diverges to +infinity, never a negative time. *)
  List.iter
    (fun lambda ->
      check_float "fcfs saturated" infinity
        (T.mm1_fcfs_response ~lambda ~mean_size:1.0 ~speed:1.0);
      check_float "pk saturated" infinity
        (T.mg1_fcfs_response ~lambda ~mean_size:1.0 ~scv:4.0 ~speed:1.0);
      check_float "ps saturated" infinity
        (T.mg1_ps_response ~lambda ~mean_size:1.0 ~speed:1.0);
      check_float "slowdown saturated" infinity
        (T.mg1_ps_mean_slowdown ~lambda ~mean_size:1.0 ~speed:1.0);
      check_float "L saturated" infinity
        (T.mm1_number_in_system ~lambda ~mean_size:1.0 ~speed:1.0))
    [ 1.0; 1.5; 40.0 ];
  (* Regression: out-of-domain inputs answered negative "times" before
     the audit (e.g. mean_size = -1 gave -1/3 here); they are nan now. *)
  Alcotest.(check bool) "negative mean size is nan" true
    (is_nan (T.mm1_fcfs_response ~lambda:2.0 ~mean_size:(-1.0) ~speed:1.0));
  Alcotest.(check bool) "negative lambda is nan" true
    (is_nan (T.mg1_ps_response ~lambda:(-0.5) ~mean_size:1.0 ~speed:1.0));
  Alcotest.(check bool) "zero speed is nan" true
    (is_nan (T.mm1_number_in_system ~lambda:0.5 ~mean_size:1.0 ~speed:0.0));
  Alcotest.(check bool) "negative scv is nan" true
    (is_nan (T.mg1_fcfs_response ~lambda:0.5 ~mean_size:1.0 ~scv:(-0.5) ~speed:1.0));
  Alcotest.(check bool) "nan lambda propagates" true
    (is_nan (T.mg1_ps_mean_slowdown ~lambda:nan ~mean_size:1.0 ~speed:1.0));
  (* An idle queue is fine: lambda = 0 gives the bare service time. *)
  check_float "lambda = 0 fcfs" 2.0
    (T.mm1_fcfs_response ~lambda:0.0 ~mean_size:2.0 ~speed:1.0);
  check_float "lambda = 0 L" 0.0
    (T.mm1_number_in_system ~lambda:0.0 ~mean_size:2.0 ~speed:1.0)

let theory_breakdown_degenerate () =
  let module T = Q.Theory in
  let at ~mtbf ~mttr =
    T.mm1_breakdown_response ~lambda:0.5 ~mean_size:1.0 ~speed:1.0 ~mtbf ~mttr
  in
  (* Regression: non-positive mtbf/mttr raised Invalid_argument before
     the audit; the module contract is now uniformly nan. *)
  List.iter
    (fun (mtbf, mttr) ->
      Alcotest.(check bool)
        (Printf.sprintf "mtbf=%g mttr=%g is nan" mtbf mttr)
        true
        (Float.is_nan (at ~mtbf ~mttr)))
    [ (0.0, 10.0); (-5.0, 10.0); (100.0, 0.0); (100.0, -1.0); (nan, 10.0); (100.0, nan) ];
  Alcotest.(check bool) "breakdown negative lambda is nan" true
    (Float.is_nan
       (T.mm1_breakdown_response ~lambda:(-1.0) ~mean_size:1.0 ~speed:1.0
          ~mtbf:100.0 ~mttr:10.0));
  (* Healthy inputs still give the Avi-Itzhak-Naor value, strictly above
     the reliable M/M/1. *)
  let broken = at ~mtbf:200.0 ~mttr:10.0 in
  Alcotest.(check bool) "breakdowns cost something" true (broken > 2.0);
  Alcotest.(check bool) "finite when stable" true (Float.is_finite broken)

let suite =
  [
    test "job: response metrics" job_basics;
    test "job: validation" job_validation;
    test "ps: lone job" ps_lone_job;
    test "ps: equal jobs share equally" ps_two_equal_jobs_share;
    test "ps: short job overtakes" ps_short_job_preempts;
    test "ps: three-way sharing trace" ps_three_way_sharing;
    test "ps: work conservation" ps_work_conservation;
    test "ps: utilization accounting" ps_utilization;
    test "ps: reset statistics" ps_reset_stats;
    test "ps: invalid speed" ps_invalid_speed;
    test "fcfs: completion order" fcfs_ordering;
    test "fcfs vs ps: head-of-line blocking" fcfs_head_of_line_blocking;
    test "rr: single job full speed" rr_single_job;
    test "rr: quantum interleaving" rr_interleaving;
    slow_test "rr: converges to ps as quantum -> 0" rr_converges_to_ps;
    test "rr: work conservation" rr_work_conservation;
    test "server interface coercion" server_intf_coercion;
    test "theory: saturation and domain edges" theory_saturation_and_domain;
    test "theory: degenerate breakdown inputs" theory_breakdown_degenerate;
    slow_test "m/m/1-ps matches theory" (fun () ->
        mm1_ps_theory ~size_dist:(Statsched_dist.Exponential.of_mean 2.0) ());
    slow_test "m/g/1-ps insensitivity (erlang sizes)" (fun () ->
        mm1_ps_theory ~size_dist:(Statsched_dist.Erlang.create ~k:3 ~rate:1.5) ());
    slow_test "m/g/1-ps insensitivity (hyperexponential sizes)" (fun () ->
        mm1_ps_theory
          ~size_dist:(Statsched_dist.Hyperexponential.fit_cv ~mean:2.0 ~cv:2.5)
          ());
  ]

(* ------------------------------------------------------------------ *)
(* SRPT server                                                         *)

let srpt_lone_job () =
  let jobs = drive ~make_server:(srpt ~speed:2.0 ()) [ (1.0, 10.0) ] in
  match jobs with
  | [ j ] -> check_float ~eps:1e-9 "size/speed" 6.0 j.Job.completion
  | _ -> Alcotest.fail "expected one job"

let srpt_preemption_trace () =
  (* Size-10 at t=0; size-2 at t=3.  SRPT preempts (2 < 7 remaining):
     short done at t=5; long resumes, 7 left, done at t=12. *)
  let jobs = drive ~make_server:(srpt ()) [ (0.0, 10.0); (3.0, 2.0) ] in
  let by_size s = List.find (fun j -> Float.equal j.Job.size s) jobs in
  check_float ~eps:1e-9 "short job" 5.0 (by_size 2.0).Job.completion;
  check_float ~eps:1e-9 "long job" 12.0 (by_size 10.0).Job.completion

let srpt_no_preemption_when_larger () =
  (* Size-3 at t=0; size-5 at t=1: no preemption (5 > 2 remaining);
     first done at 3, second at 8. *)
  let jobs = drive ~make_server:(srpt ()) [ (0.0, 3.0); (1.0, 5.0) ] in
  let by_size s = List.find (fun j -> Float.equal j.Job.size s) jobs in
  check_float ~eps:1e-9 "runner unaffected" 3.0 (by_size 3.0).Job.completion;
  check_float ~eps:1e-9 "larger waits" 8.0 (by_size 5.0).Job.completion

let srpt_runs_smallest_remaining () =
  (* Three jobs together: completion order is by size. *)
  let jobs = drive ~make_server:(srpt ()) [ (0.0, 5.0); (0.0, 1.0); (0.0, 3.0) ] in
  let order = List.map (fun j -> j.Job.size) jobs in
  Alcotest.(check (list (float 0.0))) "smallest first" [ 1.0; 3.0; 5.0 ] order

let srpt_work_conservation () =
  let engine = Engine.create () in
  let store = Q.Job_store.create () in
  let server = srpt ~speed:2.0 () ~engine ~store ~on_departure:(fun _ -> ()) in
  let g = rng () in
  let total = ref 0.0 in
  for i = 1 to 300 do
    let at = Rng.float g *. 200.0 in
    let size = 0.1 +. (Rng.float g *. 3.0) in
    total := !total +. size;
    ignore
      (Engine.schedule_at engine ~time:at (fun _ ->
           server.Q.Server_intf.submit (Q.Job_store.add store ~id:i ~size ~arrival:at)))
  done;
  Engine.run engine;
  Alcotest.(check int) "all complete" 300 (server.Q.Server_intf.completed ());
  check_close ~rel:1e-6 "work conserved" !total (server.Q.Server_intf.work_done ());
  Alcotest.(check int) "drained" 0 (server.Q.Server_intf.in_system ())

let srpt_beats_ps_on_mean_response_time () =
  (* SRPT is optimal for mean response time: on the same arrival trace it
     must not lose to PS. *)
  let g = rng ~seed:77L () in
  let trace =
    List.sort compare_arrivals
      (List.init 500 (fun _ ->
           (Rng.float g *. 2000.0, 0.2 +. (Rng.float g *. 6.0))))
  in
  let mean_rt jobs =
    List.fold_left (fun acc j -> acc +. Job.response_time j) 0.0 jobs
    /. float_of_int (List.length jobs)
  in
  let t_srpt = mean_rt (drive ~make_server:(srpt ()) trace) in
  let t_ps = mean_rt (drive ~make_server:(ps ()) trace) in
  Alcotest.(check bool)
    (Printf.sprintf "SRPT %.3f <= PS %.3f" t_srpt t_ps)
    true
    (t_srpt <= t_ps +. 1e-9)

let srpt_discipline_in_simulation () =
  let speeds = [| 2.0 |] in
  let workload =
    Statsched_cluster.Workload.paper_default ~rho:0.6 ~speeds
  in
  let run discipline =
    let cfg =
      Statsched_cluster.Simulation.default_config ~discipline ~horizon:200_000.0
        ~speeds ~workload
        ~scheduler:(Statsched_cluster.Scheduler.static Statsched_core.Policy.wrr) ()
    in
    (Statsched_cluster.Simulation.run cfg).Statsched_cluster.Simulation.metrics
      .Statsched_core.Metrics.mean_response_time
  in
  let t_srpt = run Statsched_cluster.Simulation.Srpt in
  let t_fcfs = run Statsched_cluster.Simulation.Fcfs in
  Alcotest.(check bool)
    (Printf.sprintf "SRPT %.1f crushes FCFS %.1f under heavy tails" t_srpt t_fcfs)
    true
    (t_srpt < t_fcfs /. 2.0)

let srpt_suite =
  [
    test "srpt: lone job" srpt_lone_job;
    test "srpt: preemption trace" srpt_preemption_trace;
    test "srpt: larger arrival does not preempt" srpt_no_preemption_when_larger;
    test "srpt: completion order by size" srpt_runs_smallest_remaining;
    test "srpt: work conservation" srpt_work_conservation;
    slow_test "srpt: never loses to ps on mean response time"
      srpt_beats_ps_on_mean_response_time;
    slow_test "srpt: crushes fcfs under heavy tails (simulation)"
      srpt_discipline_in_simulation;
  ]

(* ------------------------------------------------------------------ *)
(* Serial server: service order and fault hooks                        *)

let serial_orders =
  Q.Serial_server.[ ("FCFS", Fcfs); ("RR(q=1)", Rr 1.0); ("SRPT", Srpt) ]

let ids jobs = List.map (fun j -> j.Job.id) jobs

let completion_of id jobs = (List.find (fun j -> j.Job.id = id) jobs).Job.completion

let suspend_at ~from ~until =
  [ (from, fun s -> s.Q.Server_intf.set_rate 0.0); (until, fun s -> s.Q.Server_intf.set_rate 1.0) ]

let rr_start_at_first_service () =
  (* Two size-2 jobs, quantum 1, speed 1: the second first runs at t=1. *)
  match drive ~make_server:(rr ~quantum:1.0 ()) [ (0.0, 2.0); (0.0, 2.0) ] with
  | [ a; b ] ->
    check_float ~eps:0.0 "first job starts at once" 0.0 a.Job.start;
    check_float ~eps:0.0 "second job starts at its first slice" 1.0 b.Job.start
  | _ -> Alcotest.fail "expected two jobs"

let suspend_shifts_completions () =
  (* Sizes 1 and 1.5 at t=0 finish at 1 and 2.5 under every order (RR
     with q=1 slices the second job into 1 + 0.5).  An outage over
     [0.5, 2.5) catches the first job mid-slice with 0.5 left; on resume
     it finishes that, so both completions move by exactly 2. *)
  let trace = [ (0.0, 1.0); (0.0, 1.5) ] in
  List.iter
    (fun (name, order) ->
      let make_server = serial order () in
      let base = drive ~make_server trace in
      let util = ref nan in
      let faulted =
        drive ~make_server
          ~actions:
            (suspend_at ~from:0.5 ~until:2.5
            @ [ (10.0, fun s -> util := s.Q.Server_intf.utilization ()) ])
          trace
      in
      check_float ~eps:0.0 (name ^ ": first, fault-free") 1.0 (completion_of 0 base);
      check_float ~eps:0.0 (name ^ ": second, fault-free") 2.5 (completion_of 1 base);
      check_float ~eps:0.0 (name ^ ": first, outage") 3.0 (completion_of 0 faulted);
      check_float ~eps:0.0 (name ^ ": second, outage") 4.5 (completion_of 1 faulted);
      (* busy over [0, 0.5) and [2.5, 4.5) of [0, 10) *)
      check_float ~eps:1e-12 (name ^ ": suspended time is idle") 0.25 !util)
    serial_orders

let half_rate_doubles_remaining_time () =
  (* Size 8 on speed 2 would finish at t=4.  Halving the rate at t=1.25
     (mid-slice for RR) leaves 2.75 s of service, which now takes 5.5 s:
     completion 6.75. *)
  List.iter
    (fun (name, order) ->
      let work = ref nan in
      let jobs =
        drive
          ~make_server:(serial ~speed:2.0 order ())
          ~actions:
            [
              (1.25, fun s -> s.Q.Server_intf.set_rate 0.5);
              (10.0, fun s -> work := s.Q.Server_intf.work_done ());
            ]
          [ (0.0, 8.0) ]
      in
      check_float ~eps:1e-12 (name ^ ": completion") 6.75 (completion_of 0 jobs);
      check_float ~eps:1e-12 (name ^ ": work conserved") 8.0 !work)
    serial_orders

let drain_returns_runner_then_ready () =
  (* Sizes 3, 1, 2 at t=0, drained at t=1.5.
     FCFS: job 0 runs, 1 and 2 wait.
     RR(1): 0 runs [0,1) and rejoins behind 1 and 2; 1 holds the
       processor at 1.5, then come 2 and 0.
     SRPT: 1 preempts 0 and finishes at 1; 2 (remaining 2) runs next,
       ahead of 0 (remaining 3). *)
  let trace = [ (0.0, 3.0); (0.0, 1.0); (0.0, 2.0) ] in
  List.iter2
    (fun (name, order) (drained_ids, completed_ids) ->
      let drained = ref [] and left = ref (-1) in
      let store = Q.Job_store.create () in
      let completed =
        drive ~store ~make_server:(serial order ())
          ~actions:
            [
              ( 1.5,
                fun s ->
                  drained := List.map (job_of_slot store) (s.Q.Server_intf.drain ());
                  left := s.Q.Server_intf.in_system () );
            ]
          trace
      in
      Alcotest.(check (list int)) (name ^ ": drain order") drained_ids (ids !drained);
      Alcotest.(check (list int)) (name ^ ": completed before") completed_ids (ids completed);
      Alcotest.(check int) (name ^ ": empty after drain") 0 !left;
      List.iter
        (fun j -> Alcotest.(check bool) (name ^ ": drained, not completed") false (Job.is_completed j))
        !drained)
    serial_orders
    [ ([ 0; 1; 2 ], []); ([ 1; 2; 0 ], []); ([ 2; 0 ], [ 1 ]) ]

let arrival_while_suspended () =
  (* Size 4 at t=0, suspended over [0.5, 3) with 3.5 left; size 2 arrives
     at t=2.  SRPT preempts even while suspended (2 < 3.5), so the
     newcomer runs [3, 5).  FCFS finishes the first job [3, 6.5); RR(1)
     alternates from t=3: 0 [3,4) 1 [4,5) 0 [5,6) 1 [6,7) 0 [7,8.5). *)
  List.iter2
    (fun (name, order) (first, second) ->
      let jobs =
        drive ~make_server:(serial order ())
          ~actions:(suspend_at ~from:0.5 ~until:3.0)
          [ (0.0, 4.0); (2.0, 2.0) ]
      in
      check_float ~eps:0.0 (name ^ ": first job") first (completion_of 0 jobs);
      check_float ~eps:0.0 (name ^ ": second job") second (completion_of 1 jobs))
    serial_orders
    [ (6.5, 8.5); (8.5, 7.0); (8.5, 5.0) ]

(* ------------------------------------------------------------------ *)
(* Pinned discipline outputs                                           *)

(* IEEE-754 bit patterns of a short Table 3 run (rho 0.7, ORR, horizon
   10^4 s, seed 42): mean response time, mean response ratio and each
   computer's utilisation, per discipline with and without exponential
   crashes (MTBF 2000 s, MTTR 100 s), followed by the engine's
   [events_executed] and [heap_high_water].  Any change to a server's
   arithmetic or event order shows up here, and so does any change to
   how many events the engine fires or holds pending at once. *)
let pinned_cells =
  [
    ("PS", "none",
      0x403b5fa6c55506b9L, 0x3fdfbee1009a4264L,
      [|
        0x3fd787a37a948868L; 0x3fe27712ff448f1aL; 0x3fd593957be6b869L;
        0x3fe0a8364c017809L; 0x3fc12b2750ccc14aL; 0x3fe1000285bea251L;
        0x3fdb5eff666a58adL; 0x3fe2c39a0b3f0efeL; 0x3fda994dbccb30d2L;
        0x3fde1d32357308f1L; 0x3fdf373aeac59e23L; 0x3fd5c99a4bbfeaa0L;
        0x3fe716c95e5c52eaL; 0x3fe5dd8031248905L; 0x3fe728661b6560a1L
      |],
      8347, 15);
    ("PS", "requeue",
      0x404477e870abc6e1L, 0x3fe8f341c075e54fL,
      [|
        0x3fcd302e1a312294L; 0x3fd58d771ef1864bL; 0x3fdb7b5ac2bd5503L;
        0x3fbd36e2fe4e50f7L; 0x3fc54634831c1ae3L; 0x3fe216f0aa1b3b9dL;
        0x3fd67d5f6ebbc2e8L; 0x3fd7cadaa90bed76L; 0x3fe3322c6e7d68aaL;
        0x3fdaf649532a8c95L; 0x3fdfe6c3dbd6fe93L; 0x3fd23b4f102b159bL;
        0x3fe5f9b345857323L; 0x3fe73cef3328fd31L; 0x3feb322fda8d1530L
      |],
      8467, 31);
    ("PS", "resume",
      0x4040d214feec1089L, 0x3fe2b56cc8adc2f3L,
      [|
        0x3fdcb06906aab586L; 0x3fd21a9359029878L; 0x3fd7f3e6670f1d5eL;
        0x3fdcdbe8cc1f1af7L; 0x3fd3d3ad572da7c5L; 0x3fd7ee5c71bef311L;
        0x3fe8682044567206L; 0x3fe31f1db3dbcba2L; 0x3fe73f7128b55462L;
        0x3fe0a199ac44b7baL; 0x3fe629dd85b54526L; 0x3fd3af38335a7c7aL;
        0x3fe1b99f8911788fL; 0x3fe4bf28c9950542L; 0x3fe8681063a3f389L
      |],
      8492, 31);
    ("PS", "drop",
      0x4037ef39c3a55eb0L, 0x3fdea9e9d8e87ff5L,
      [|
        0x3fcbd1d4c915c2e2L; 0x3fd21a9359029878L; 0x3fd5c4a841a2702dL;
        0x3fce076cd7217428L; 0x3fd381176f3c889bL; 0x3fd70b6015901359L;
        0x3fd46971da521058L; 0x3fe31f1db3dbcba2L; 0x3fe34cf8e0e52fe6L;
        0x3fd8d92243af28a7L; 0x3fdd678a5e65c715L; 0x3fd24f3d3877cb68L;
        0x3fe097429ca4e7a5L; 0x3fe3a5b2656ee602L; 0x3fe8681063a3f38bL
      |],
      8450, 31);
    ("FCFS", "none",
      0x405d019fb8b51af9L, 0x4015bb04f8e76b15L,
      [|
        0x3fd787a37a948868L; 0x3fe27712ff448f1eL; 0x3fd593957be6b86aL;
        0x3fe0a8364c01780aL; 0x3fc12b2750ccc14eL; 0x3fe1000285bea254L;
        0x3fdb5eff666a58a9L; 0x3fe2c39a0b3f0f03L; 0x3fda994dbccb30ddL;
        0x3fde1d32357308faL; 0x3fdf373aeac59e35L; 0x3fd5c99a4bbfeaacL;
        0x3fe716c95e5c52f5L; 0x3fe5dd8031248918L; 0x3fe728661b656090L
      |],
      8155, 15);
    ("FCFS", "requeue",
      0x406cb876577649f0L, 0x40259cf2e83f2a5cL,
      [|
        0x3fce54d1d4bc6ac7L; 0x3fd36e7fe9825900L; 0x3fdc3df3496edd64L;
        0x3fbf312fd1e3892fL; 0x3fc54634831c1ae6L; 0x3fd70f92b80a8d0fL;
        0x3fd896129994a081L; 0x3fd802f47ddca833L; 0x3fe33f7fb9816deeL;
        0x3fd9b0c3b6736502L; 0x3fde03d58b37cbe0L; 0x3fd2e56a9d0c3acbL;
        0x3fe0f68be06d8408L; 0x3fe53928d98ededaL; 0x3febf20213c00084L
      |],
      8251, 31);
    ("FCFS", "resume",
      0x406387fc01283d3eL, 0x401d3738a2cbdef7L,
      [|
        0x3fdcb06906aab58aL; 0x3fd21a935902986dL; 0x3fd7f3e6670f1d5fL;
        0x3fdcdbe8cc1f1afbL; 0x3fd3d3ad572da7c5L; 0x3fd7ee5c71bef315L;
        0x3fe8682044567205L; 0x3fe31f1db3dbcba2L; 0x3fe73f7128b55469L;
        0x3fe0a199ac44b7b6L; 0x3fe629dd85b54527L; 0x3fd3af38335a7c87L;
        0x3fe1b99f89117892L; 0x3fe4bf28c9950543L; 0x3fe8681063a3f380L
      |],
      8262, 31);
    ("FCFS", "drop",
      0x405b70224a8cd695L, 0x40146828c1eb3933L,
      [|
        0x3fcbd1d4c915c2deL; 0x3fd21a935902986dL; 0x3fd5c4a841a2702eL;
        0x3fce076cd7217431L; 0x3fd381176f3c889bL; 0x3fd70b6015901360L;
        0x3fd46971da521057L; 0x3fe31f1db3dbcba2L; 0x3fe34cf8e0e52febL;
        0x3fd8d92243af289fL; 0x3fdd678a5e65c717L; 0x3fd24f3d3877cb77L;
        0x3fe097429ca4e7a9L; 0x3fe3a5b2656ee5fcL; 0x3fe8681063a3f380L
      |],
      8230, 31);
    ("RR(q=0.5)", "none",
      0x403b63e66deb3e7bL, 0x3fdfd14237094e67L,
      [|
        0x3fd787a37a948868L; 0x3fe27712ff448f1fL; 0x3fd593957be6b86aL;
        0x3fe0a8364c01780aL; 0x3fc12b2750ccc14eL; 0x3fe1000285be9b73L;
        0x3fdb5eff666a4e72L; 0x3fe2c39a0b3f10ecL; 0x3fda994dbccb39feL;
        0x3fde1d32357308faL; 0x3fdf373aeac59e35L; 0x3fd5c99a4bbfeaafL;
        0x3fe716c95e5c7838L; 0x3fe5dd8031249a35L; 0x3fe728661b65770cL
      |],
      520242, 15);
    ("RR(q=0.5)", "requeue",
      0x40430d5015a2b892L, 0x3fe8eefdc250b97dL,
      [|
        0x3fcf8dc103cb002eL; 0x3fd46578a4a4f512L; 0x3fdb9927b0e51ab1L;
        0x3fbd0590f0d43d22L; 0x3fc54ca2fb2a5201L; 0x3fd4fef9489875fbL;
        0x3fd678752af78f8dL; 0x3fd81fb0a5c52e1cL; 0x3fe2ece6277fe49bL;
        0x3fdaf649532a8c89L; 0x3fde98a39a32be94L; 0x3fd19e02e5aba8c6L;
        0x3fe38111548ad22eL; 0x3fe672bb5e96b48dL; 0x3fec0c61477703e3L
      |],
      530076, 31);
    ("RR(q=0.5)", "resume",
      0x4040d4ebc7860c28L, 0x3fe2c1c07a6a4495L,
      [|
        0x3fdcb06906aab58aL; 0x3fd21a935902986eL; 0x3fd7f3e6670f1d5fL;
        0x3fdcdbe8cc1f1afbL; 0x3fd3d3ad572da7c5L; 0x3fd7ee5c71bef3ecL;
        0x3fe8682044566eb6L; 0x3fe31f1db3dbc977L; 0x3fe73f7128b54e69L;
        0x3fe0a199ac44b7baL; 0x3fe629dd85b54527L; 0x3fd3af38335a7c89L;
        0x3fe1b99f8911ae85L; 0x3fe4bf28c9950e5fL; 0x3fe8681063a444b5L
      |],
      522625, 31);
    ("RR(q=0.5)", "drop",
      0x4037f3bc0c173a15L, 0x3fdebd2581566f7bL,
      [|
        0x3fcbd1d4c915c2deL; 0x3fd21a935902986eL; 0x3fd5c4a841a2702eL;
        0x3fce076cd7217431L; 0x3fd381176f3c889bL; 0x3fd70b60159013b6L;
        0x3fd46971da52197dL; 0x3fe31f1db3dbc977L; 0x3fe34cf8e0e52fbcL;
        0x3fd8d92243af28a6L; 0x3fdd678a5e65c717L; 0x3fd24f3d3877cb77L;
        0x3fe097429ca51861L; 0x3fe3a5b2656ee944L; 0x3fe8681063a444b5L
      |],
      479605, 31);
    ("SRPT", "none",
      0x403459629b720eedL, 0x3fd26a8b5f8bb216L,
      [|
        0x3fd787a37a948868L; 0x3fe27712ff448f1fL; 0x3fd593957be6b86cL;
        0x3fe0a8364c01780aL; 0x3fc12b2750ccc14eL; 0x3fe1000285bea252L;
        0x3fdb5eff666a58a9L; 0x3fe2c39a0b3f0f04L; 0x3fda994dbccb30ddL;
        0x3fde1d32357308faL; 0x3fdf373aeac59e35L; 0x3fd5c99a4bbfeaadL;
        0x3fe716c95e5c52f6L; 0x3fe5dd8031248915L; 0x3fe728661b656092L
      |],
      8362, 15);
    ("SRPT", "requeue",
      0x403560aef6a637b7L, 0x3fd257c177b60fd1L,
      [|
        0x3fcd9284385a210dL; 0x3fd19a3f06e110d8L; 0x3fdb44714d07042aL;
        0x3fbbaa16d251d3ccL; 0x3fc54ca2fb2a5201L; 0x3fd4677f2538c2efL;
        0x3fd58ba1b5550bb5L; 0x3fd7a4597d74410dL; 0x3fe32a3fff679d4aL;
        0x3fdbf32bf71cac85L; 0x3fde32d570598c2cL; 0x3fd1c3bef3474becL;
        0x3fe256c01344128bL; 0x3fe668ec594dda3bL; 0x3feb6d88aefb98c5L
      |],
      8515, 31);
    ("SRPT", "resume",
      0x4036df89691aa8b3L, 0x3fd2f073c83e507fL,
      [|
        0x3fdcb06906aab58aL; 0x3fd21a935902986eL; 0x3fd7f3e6670f1d5fL;
        0x3fdcdbe8cc1f1afbL; 0x3fd3d3ad572da7c5L; 0x3fd7ee5c71bef315L;
        0x3fe8682044567205L; 0x3fe31f1db3dbcba2L; 0x3fe73f7128b5546cL;
        0x3fe0a199ac44b7b6L; 0x3fe629dd85b54527L; 0x3fd3af38335a7c87L;
        0x3fe1b99f89117892L; 0x3fe4bf28c9950543L; 0x3fe8681063a3f37fL
      |],
      8512, 31);
    ("SRPT", "drop",
      0x4030d312a0888a34L, 0x3fd1ecf67ade14ecL,
      [|
        0x3fcbd1d4c915c2deL; 0x3fd21a935902986eL; 0x3fd5c4a841a2702eL;
        0x3fce076cd7217431L; 0x3fd381176f3c889bL; 0x3fd70b6015901360L;
        0x3fd46971da521057L; 0x3fe31f1db3dbcba2L; 0x3fe34cf8e0e52febL;
        0x3fd8d92243af289fL; 0x3fdd678a5e65c717L; 0x3fd24f3d3877cb77L;
        0x3fe097429ca4e7a9L; 0x3fe3a5b2656ee5fcL; 0x3fe8681063a3f37fL
      |],
      8481, 31);
  ]

let pinned_outputs () =
  let module S = Statsched_cluster.Simulation in
  let module Fault = Statsched_cluster.Fault in
  let speeds = Statsched_core.Speeds.table3 in
  let workload = Statsched_cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let disciplines =
    [ ("PS", S.Ps); ("FCFS", S.Fcfs); ("RR(q=0.5)", S.Rr 0.5); ("SRPT", S.Srpt) ]
  in
  let on_failure =
    [
      ("none", None);
      ("requeue", Some Fault.Requeue);
      ("resume", Some Fault.Resume);
      ("drop", Some Fault.Drop);
    ]
  in
  List.iter
    (fun (d, f, rt, ratio, util, events, hwm) ->
      let faults =
        Option.map
          (fun on_failure -> Fault.exponential ~on_failure ~mtbf:2000.0 ~mttr:100.0 ())
          (List.assoc f on_failure)
      in
      let r =
        S.run
          (S.default_config ~discipline:(List.assoc d disciplines) ?faults ~horizon:10_000.0
             ~warmup:2_500.0 ~speeds ~workload
             ~scheduler:(Statsched_cluster.Scheduler.static Statsched_core.Policy.orr)
             ())
      in
      let bits what expected actual =
        Alcotest.(check int64) (Printf.sprintf "%s/%s %s" d f what) expected
          (Int64.bits_of_float actual)
      in
      bits "mean response time" rt r.S.metrics.Statsched_core.Metrics.mean_response_time;
      bits "mean response ratio" ratio r.S.metrics.Statsched_core.Metrics.mean_response_ratio;
      Array.iteri
        (fun i pc -> bits (Printf.sprintf "utilization[%d]" i) util.(i) pc.S.utilization)
        r.S.per_computer;
      Alcotest.(check int) (Printf.sprintf "%s/%s events executed" d f) events
        r.S.events_executed;
      Alcotest.(check int) (Printf.sprintf "%s/%s heap high-water" d f) hwm
        r.S.heap_high_water)
    pinned_cells

(* Completions never touch the engine's event heap: jobs submitted
   directly, with no other event scheduled, must all complete while the
   heap stores nothing — servers re-arm their completion slot instead.
   A suspension and a resume (straight calls, not events) re-arm too. *)
let completions_bypass_heap () =
  List.iter
    (fun (name, make_server) ->
      let engine = Engine.create () in
      let store = Q.Job_store.create () in
      let done_ = ref 0 in
      let heap_seen = ref 0 in
      let look () = heap_seen := max !heap_seen (Engine.Testing.heap_stored engine) in
      let server =
        make_server ~engine ~store ~on_departure:(fun _ ->
            incr done_;
            look ())
      in
      List.iteri
        (fun i size -> server.Q.Server_intf.submit (Q.Job_store.add store ~id:i ~size ~arrival:0.0))
        [ 3.0; 1.0; 2.0; 0.5 ];
      ignore (Engine.step engine);
      server.Q.Server_intf.set_rate 0.0;
      Alcotest.(check int) (name ^ ": suspended, nothing pending") 0
        (Engine.pending_events engine);
      server.Q.Server_intf.set_rate 1.0;
      Alcotest.(check int) (name ^ ": one completion pending") 1
        (Engine.pending_events engine);
      while Engine.step engine do
        look ()
      done;
      Alcotest.(check int) (name ^ ": all jobs completed") 4 !done_;
      Alcotest.(check int) (name ^ ": heap never stored an event") 0 !heap_seen)
    [ ("PS", ps ()); ("FCFS", fcfs ()); ("RR", rr ~quantum:0.25 ()); ("SRPT", srpt ()) ]

let serial_invalid_arguments () =
  let engine = Engine.create () in
  let store = Q.Job_store.create () in
  let create ~speed order =
    ignore (Q.Serial_server.create ~engine ~speed ~order ~store ~on_departure:(fun _ -> ()) ())
  in
  Alcotest.check_raises "speed <= 0" (Invalid_argument "Serial_server.create: speed <= 0")
    (fun () -> create ~speed:0.0 Q.Serial_server.Srpt);
  Alcotest.check_raises "quantum <= 0"
    (Invalid_argument "Serial_server.create: quantum <= 0") (fun () ->
      create ~speed:1.0 (Q.Serial_server.Rr 0.0));
  let s = fcfs () ~engine ~store ~on_departure:(fun _ -> ()) in
  Alcotest.check_raises "negative rate" (Invalid_argument "Serial_server.set_rate: rate < 0")
    (fun () -> s.Q.Server_intf.set_rate (-1.0))

let serial_suite =
  [
    test "serial: invalid arguments" serial_invalid_arguments;
    test "rr: start stamped at first service" rr_start_at_first_service;
    test "serial: suspension shifts completions by the outage" suspend_shifts_completions;
    test "serial: half rate doubles remaining service time" half_rate_doubles_remaining_time;
    test "serial: drain returns runner, then ready jobs" drain_returns_runner_then_ready;
    test "serial: arrival while suspended" arrival_while_suspended;
    test "serial: pinned Table 3 outputs" pinned_outputs;
    test "servers: completions bypass the event heap" completions_bypass_heap;
  ]

let suite = suite @ srpt_suite @ serial_suite
