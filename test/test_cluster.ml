open Test_util
module Cluster = Statsched_cluster
module Workload = Cluster.Workload
module Simulation = Cluster.Simulation
module Scheduler = Cluster.Scheduler
module Collector = Cluster.Collector
module Interval_stats = Cluster.Interval_stats
module Core = Statsched_core
module Job = Statsched_queueing.Job

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let workload_paper_default () =
  let speeds = Core.Speeds.table3 in
  let w = Workload.paper_default ~rho:0.7 ~speeds in
  check_close ~rel:1e-9 "offered utilization" 0.7 (Workload.utilization w ~speeds);
  check_close ~rel:0.001 "mu = 1/76.8" (1.0 /. 76.8) (Workload.mu w);
  (* arrival CV is 3 *)
  check_close ~rel:1e-6 "arrival cv 3" 3.0
    (Statsched_dist.Distribution.cv w.Workload.interarrival)

let workload_poisson_exponential () =
  let speeds = [| 1.0; 1.0 |] in
  let w = Workload.poisson_exponential ~rho:0.5 ~mean_size:2.0 ~speeds in
  check_close ~rel:1e-9 "utilization" 0.5 (Workload.utilization w ~speeds);
  check_close ~rel:1e-9 "arrival rate" 0.5 (Workload.arrival_rate w)

let workload_with_cv () =
  let speeds = [| 2.0 |] in
  List.iter
    (fun cv ->
      let w = Workload.with_cv ~rho:0.6 ~arrival_cv:cv ~speeds in
      check_close ~rel:1e-6
        (Printf.sprintf "requested cv %.2f realised" cv)
        cv
        (Statsched_dist.Distribution.cv w.Workload.interarrival))
    [ 3.0; 1.0; 0.5 ];
  Alcotest.check_raises "invalid rho"
    (Invalid_argument "Workload: utilisation must satisfy 0 < rho < 1") (fun () ->
      ignore (Workload.paper_default ~rho:1.5 ~speeds))

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)

let metrics_exn c =
  match Collector.metrics c with
  | Ok m -> m
  | Error `No_jobs_measured -> Alcotest.fail "no jobs measured"

let collector_filters_warmup () =
  let c = Collector.create ~warmup:10.0 () in
  let early = Job.create ~id:1 ~size:1.0 ~arrival:5.0 in
  early.Job.completion <- 7.0;
  Collector.on_departure c early;
  Alcotest.(check int) "warm-up job excluded" 0 (Collector.jobs_measured c);
  let late = Job.create ~id:2 ~size:2.0 ~arrival:11.0 in
  late.Job.completion <- 15.0;
  Collector.on_departure c late;
  Alcotest.(check int) "post-warm-up job counted" 1 (Collector.jobs_measured c);
  let m = metrics_exn c in
  check_float "mean response time" 4.0 m.Core.Metrics.mean_response_time;
  check_float "mean response ratio" 2.0 m.Core.Metrics.mean_response_ratio;
  check_float "fairness of single job" 0.0 m.Core.Metrics.fairness

let collector_fairness () =
  let c = Collector.create ~warmup:0.0 () in
  (* Two jobs with response ratios 1 and 3: population std = 1. *)
  let j1 = Job.create ~id:1 ~size:2.0 ~arrival:0.0 in
  j1.Job.completion <- 2.0;
  let j2 = Job.create ~id:2 ~size:1.0 ~arrival:0.0 in
  j2.Job.completion <- 3.0;
  Collector.on_departure c j1;
  Collector.on_departure c j2;
  let m = metrics_exn c in
  check_float ~eps:1e-12 "fairness" 1.0 m.Core.Metrics.fairness;
  Alcotest.(check int) "count" 2 m.Core.Metrics.jobs

let collector_empty_is_error () =
  let c = Collector.create ~warmup:0.0 () in
  (match Collector.metrics c with
  | Error `No_jobs_measured -> ()
  | Ok _ -> Alcotest.fail "expected Error `No_jobs_measured on an empty window")

(* ------------------------------------------------------------------ *)
(* Interval_stats                                                      *)

let interval_stats_basic () =
  let s =
    Interval_stats.create ~expected:[| 0.5; 0.5 |] ~start:100.0 ~interval:10.0
      ~n_intervals:2
  in
  (* interval 0: one job to each computer -> deviation 0 *)
  Interval_stats.record s ~time:101.0 ~computer:0;
  Interval_stats.record s ~time:105.0 ~computer:1;
  (* interval 1: both jobs to computer 0 -> deviation 0.5 *)
  Interval_stats.record s ~time:112.0 ~computer:0;
  Interval_stats.record s ~time:119.9 ~computer:0;
  (* outside the window: ignored *)
  Interval_stats.record s ~time:99.0 ~computer:1;
  Interval_stats.record s ~time:120.0 ~computer:1;
  check_array ~eps:1e-12 "deviations" [| 0.0; 0.5 |] (Interval_stats.deviations s);
  let counts = Interval_stats.counts s in
  Alcotest.(check (array int)) "interval 0 counts" [| 1; 1 |] counts.(0);
  Alcotest.(check (array int)) "interval 1 counts" [| 2; 0 |] counts.(1)

let interval_stats_validation () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Interval_stats.create: interval <= 0") (fun () ->
      ignore (Interval_stats.create ~expected:[| 1.0 |] ~start:0.0 ~interval:0.0 ~n_intervals:1))

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let scheduler_names () =
  Alcotest.(check string) "static" "ORR" (Scheduler.name (Scheduler.static Core.Policy.orr));
  Alcotest.(check string) "least load" "LeastLoad" (Scheduler.name Scheduler.least_load_paper);
  Alcotest.(check string) "instant" "LeastLoad(instant)"
    (Scheduler.name Scheduler.least_load_instant)

(* ------------------------------------------------------------------ *)
(* Simulation integration                                              *)

let run_simple ?(horizon = 100_000.0) ?(scheduler = Scheduler.static Core.Policy.wrr)
    ?(speeds = [| 1.0 |]) ?(rho = 0.7) ?on_dispatch () =
  let workload = Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let cfg = Simulation.default_config ~horizon ~speeds ~workload ~scheduler () in
  Simulation.run ?on_dispatch cfg

let sim_mm1_matches_theory () =
  (* Single M/M/1-PS computer: T = 1/(mu(1-rho)) with mu = 1, rho = 0.7. *)
  let r = run_simple () in
  check_close ~rel:0.07 "mean response time"
    (1.0 /. (1.0 -. 0.7))
    r.Simulation.metrics.Core.Metrics.mean_response_time;
  check_close ~rel:0.07 "measured utilization" 0.7
    r.Simulation.per_computer.(0).Simulation.utilization

let sim_heterogeneous_mm_matches_theory () =
  (* Weighted allocation + random dispatch on exponential workload splits
     a Poisson stream into independent Poisson streams: each computer is
     an M/M/1-PS queue, so the system mean response time follows equation
     (3) exactly. *)
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let rho = 0.6 in
  let workload = Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:200_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wran) ()
  in
  let r = Simulation.run cfg in
  let lambda = Core.Mm1.lambda_of_utilization ~mu:1.0 ~rho ~speeds in
  let expected =
    Core.Mm1.mean_response_time ~mu:1.0 ~lambda ~speeds
      ~alloc:(Core.Allocation.weighted speeds)
  in
  check_close ~rel:0.07 "equation (3)" expected
    r.Simulation.metrics.Core.Metrics.mean_response_time

let sim_optimized_beats_weighted_mm () =
  (* On the tractable workload ORAN's response time should be below
     WRAN's, close to the analytic predictions. *)
  let speeds = [| 1.0; 1.0; 8.0 |] in
  let rho = 0.5 in
  let workload = Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let run p =
    let cfg =
      Simulation.default_config ~horizon:300_000.0 ~speeds ~workload
        ~scheduler:(Scheduler.static p) ()
    in
    (Simulation.run cfg).Simulation.metrics.Core.Metrics.mean_response_time
  in
  let t_oran = run Core.Policy.oran and t_wran = run Core.Policy.wran in
  Alcotest.(check bool)
    (Printf.sprintf "ORAN %.3f < WRAN %.3f" t_oran t_wran)
    true (t_oran < t_wran)

let sim_dispatch_fractions_match_intent () =
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let r =
    run_simple ~speeds ~scheduler:(Scheduler.static Core.Policy.orr) ~horizon:50_000.0 ()
  in
  match r.Simulation.intended_fractions with
  | None -> Alcotest.fail "static policy must expose intended fractions"
  | Some intended ->
    Array.iteri
      (fun i intended_f ->
        check_float ~eps:0.01
          (Printf.sprintf "fraction %d realised" i)
          intended_f r.Simulation.dispatch_fractions.(i))
      intended

let sim_least_load_favours_fast () =
  let speeds = [| 1.0; 10.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.6 ~mean_size:1.0 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:50_000.0 ~speeds ~workload
      ~scheduler:Scheduler.least_load_paper ()
  in
  let r = Simulation.run cfg in
  Alcotest.(check bool) "fast machine gets bulk of jobs" true
    (r.Simulation.dispatch_fractions.(1) > 0.8);
  Alcotest.(check (option (array (float 1.0)))) "least load has no intended fractions" None
    r.Simulation.intended_fractions

let sim_replications_differ_but_seed_reproduces () =
  let mk replication =
    let speeds = [| 1.0 |] in
    let workload = Workload.poisson_exponential ~rho:0.7 ~mean_size:1.0 ~speeds in
    let cfg =
      Simulation.default_config ~horizon:20_000.0 ~replication ~speeds ~workload
        ~scheduler:(Scheduler.static Core.Policy.wrr) ()
    in
    (Simulation.run cfg).Simulation.metrics.Core.Metrics.mean_response_time
  in
  let a1 = mk 0 and a2 = mk 0 and b = mk 1 in
  check_float "same seed+replication reproduces exactly" a1 a2;
  Alcotest.(check bool) "different replication differs" true (a1 <> b)

let sim_on_dispatch_observer () =
  let count = ref 0 in
  let r =
    run_simple ~horizon:5_000.0
      ~on_dispatch:(fun job ->
        incr count;
        Alcotest.(check int) "single computer" 0 job.Job.computer)
      ()
  in
  Alcotest.(check int) "observer saw every arrival" r.Simulation.total_arrivals !count

let sim_warmup_validation () =
  let speeds = [| 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  Alcotest.check_raises "warmup >= horizon"
    (Invalid_argument "Simulation.run: warmup outside [0, horizon)") (fun () ->
      ignore
        (Simulation.run
           (Simulation.default_config ~horizon:10.0 ~warmup:10.0 ~speeds ~workload
              ~scheduler:(Scheduler.static Core.Policy.wrr) ())))

let sim_rr_discipline_close_to_ps () =
  (* The quantum server and the PS server must agree on aggregate metrics
     for the same workload. *)
  let speeds = [| 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let run discipline =
    let cfg =
      Simulation.default_config ~discipline ~horizon:20_000.0 ~speeds ~workload
        ~scheduler:(Scheduler.static Core.Policy.wrr) ()
    in
    (Simulation.run cfg).Simulation.metrics.Core.Metrics.mean_response_time
  in
  let t_ps = run Simulation.Ps in
  let t_rr = run (Simulation.Rr 0.01) in
  check_close ~rel:0.05 "RR(0.01) ~ PS" t_ps t_rr

let sim_fcfs_worse_ratio_heavy_tail () =
  (* Under heavy-tailed sizes FCFS must show a far worse mean response
     ratio than PS: big jobs block small ones. *)
  let speeds = [| 4.0 |] in
  let workload = Workload.paper_default ~rho:0.6 ~speeds in
  let run discipline =
    let cfg =
      Simulation.default_config ~discipline ~horizon:300_000.0 ~speeds ~workload
        ~scheduler:(Scheduler.static Core.Policy.wrr) ()
    in
    (Simulation.run cfg).Simulation.metrics.Core.Metrics.mean_response_ratio
  in
  let r_ps = run Simulation.Ps and r_fcfs = run Simulation.Fcfs in
  Alcotest.(check bool)
    (Printf.sprintf "FCFS ratio %.2f > PS ratio %.2f" r_fcfs r_ps)
    true (r_fcfs > r_ps)

let sim_utilization_tracks_offered_load () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:400_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wrr) ()
  in
  let r = Simulation.run cfg in
  (* Under weighted allocation every computer should be ~70% utilised. *)
  let avg =
    Array.fold_left (fun acc pc -> acc +. pc.Simulation.utilization) 0.0 r.Simulation.per_computer
    /. float_of_int (Array.length speeds)
  in
  check_close ~rel:0.1 "average utilization near 0.7" 0.7 avg

let suite =
  [
    test "workload: paper default parameters" workload_paper_default;
    test "workload: poisson/exponential" workload_poisson_exponential;
    test "workload: arrival cv control" workload_with_cv;
    test "collector: warm-up filtering" collector_filters_warmup;
    test "collector: fairness metric" collector_fairness;
    test "collector: empty window is a typed error" collector_empty_is_error;
    test "interval stats: deviations per interval" interval_stats_basic;
    test "interval stats: validation" interval_stats_validation;
    test "scheduler: names" scheduler_names;
    slow_test "simulation: M/M/1-PS matches theory" sim_mm1_matches_theory;
    slow_test "simulation: heterogeneous M/M matches equation (3)"
      sim_heterogeneous_mm_matches_theory;
    slow_test "simulation: ORAN beats WRAN on tractable workload"
      sim_optimized_beats_weighted_mm;
    test "simulation: dispatch fractions realise the allocation"
      sim_dispatch_fractions_match_intent;
    test "simulation: least-load favours the fast machine" sim_least_load_favours_fast;
    test "simulation: reproducibility and replication independence"
      sim_replications_differ_but_seed_reproduces;
    test "simulation: dispatch observer sees every arrival" sim_on_dispatch_observer;
    test "simulation: warm-up validation" sim_warmup_validation;
    slow_test "simulation: RR quantum discipline close to PS" sim_rr_discipline_close_to_ps;
    slow_test "simulation: FCFS hurts response ratio under heavy tails"
      sim_fcfs_worse_ratio_heavy_tail;
    slow_test "simulation: utilization tracks offered load"
      sim_utilization_tracks_offered_load;
  ]

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)

let probe_samples_on_cadence () =
  let speeds = [| 1.0; 2.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.6 ~mean_size:1.0 ~speeds in
  let probe = Cluster.Probe.create () in
  let cfg =
    Simulation.default_config ~horizon:1_000.0 ~warmup:0.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wrr) ()
  in
  ignore
    (Simulation.run ~on_tick:(10.0, Cluster.Probe.on_tick probe) cfg);
  (* ticks at 10, 20, ..., 1000 (the engine stops at the horizon) *)
  Alcotest.(check int) "100 samples" 100 (Cluster.Probe.sample_count probe);
  let times = Cluster.Probe.times probe in
  check_float ~eps:1e-9 "first tick" 10.0 times.(0);
  check_float ~eps:1e-9 "last tick" 1000.0 times.(99);
  Alcotest.(check int) "two series" 2
    (Array.length (Cluster.Probe.series probe 0) / 50);
  let queues = Array.append (Cluster.Probe.series probe 0) (Cluster.Probe.series probe 1) in
  Alcotest.(check bool) "queues non-negative" true (Array.for_all (fun q -> q >= 0) queues);
  Alcotest.(check int) "peak is the largest reading"
    (Array.fold_left max 0 queues) (Cluster.Probe.peak probe)

let probe_csv () =
  let p = Cluster.Probe.create () in
  Cluster.Probe.on_tick p ~time:1.0 ~queues:[| 2; 0 |];
  Cluster.Probe.on_tick p ~time:2.0 ~queues:[| 1; 3 |];
  let path = Filename.temp_file "statsched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cluster.Probe.write_csv p path;
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      close_in ic;
      Alcotest.(check string) "header" "time,c0,c1" l1;
      Alcotest.(check string) "row" "1.000000,2,0" l2)

let probe_validation () =
  let p = Cluster.Probe.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Probe: no samples recorded")
    (fun () -> ignore (Cluster.Probe.series p 0))

let probe_reveals_herding () =
  (* Under blind stale least-load the peak queue must exceed fresh
     least-load's: the probe makes the herd visible. *)
  let speeds = Array.make 4 1.0 in
  let workload = Workload.poisson_exponential ~rho:0.7 ~mean_size:1.0 ~speeds in
  let peak_of scheduler =
    let probe = Cluster.Probe.create () in
    let cfg =
      Simulation.default_config ~horizon:30_000.0 ~warmup:0.0 ~speeds ~workload
        ~scheduler ()
    in
    ignore (Simulation.run ~on_tick:(5.0, Cluster.Probe.on_tick probe) cfg);
    Cluster.Probe.peak probe
  in
  let herding =
    peak_of
      (Scheduler.stale_least_load ~count_in_flight:false ~poll_period:500.0 ())
  in
  let fresh = peak_of Scheduler.least_load_instant in
  Alcotest.(check bool)
    (Printf.sprintf "herding peak %d > fresh peak %d" herding fresh)
    true (herding > fresh)

let probe_peak () =
  (* Hand-fed samples: peak is the largest single-computer reading, not
     the largest total. *)
  let p = Cluster.Probe.create () in
  Cluster.Probe.on_tick p ~time:1.0 ~queues:[| 2; 0 |];
  Cluster.Probe.on_tick p ~time:2.0 ~queues:[| 4; 1 |];
  Cluster.Probe.on_tick p ~time:100.0 ~queues:[| 0; 5 |];
  Alcotest.(check int) "peak" 5 (Cluster.Probe.peak p)

let probe_suite =
  [
    test "probe: cadence and accessors" probe_samples_on_cadence;
    test "probe: csv output" probe_csv;
    test "probe: validation" probe_validation;
    test "probe: peak is the largest reading" probe_peak;
    slow_test "probe: reveals stale-information herding" probe_reveals_herding;
  ]

(* ------------------------------------------------------------------ *)
(* Trace: the per-job records a stride-1 journal keeps                 *)

module Journal = Statsched_obs.Journal
module Journal_file = Tracestat_core.Journal_file
module Export = Tracestat_core.Export

(* Feed one job through the telemetry hooks of a four-computer cluster
   into a journal. *)
let journal_one_job ~id ~size ~arrival ~computer ~completion =
  let speeds = [| 1.0; 1.0; 2.0; 4.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:100.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wrr) ()
  in
  let journal = Journal.create () in
  let t = Cluster.Telemetry.create ~journal cfg in
  let job = Job.create ~id ~size ~arrival in
  job.Job.computer <- computer;
  Cluster.Telemetry.on_dispatch t job;
  job.Job.completion <- completion;
  Cluster.Telemetry.on_completion t job;
  journal

let trace_record_contents () =
  let j = journal_one_job ~id:7 ~size:2.0 ~arrival:10.0 ~computer:3 ~completion:14.0 in
  Alcotest.(check int) "one dispatch" 1 (Journal.kept j Journal.Dispatch);
  Alcotest.(check int) "one completion" 1 (Journal.kept j Journal.Completion);
  Journal.iter j (function
    | Journal.Dispatch_r d ->
      check_float "dispatch time is the arrival" 10.0 d.time;
      Alcotest.(check int) "dispatch job id" 7 d.id;
      Alcotest.(check int) "dispatch computer" 3 d.computer;
      check_float "dispatch size" 2.0 d.size
    | Journal.Completion_r c ->
      check_float "completion time" 14.0 c.completion;
      Alcotest.(check int) "completion job id" 7 c.id;
      check_float "response time" 4.0 (c.completion -. c.arrival);
      check_float "response ratio" 2.0 ((c.completion -. c.arrival) /. c.size);
      check_float ~eps:0.0 "completed size" 2.0 c.size
    | Journal.Queue_r _ -> ()
    | Journal.Drop_r _ | Journal.Rate_r _ -> Alcotest.fail "no faults in this run")

let trace_csv_golden () =
  let j = journal_one_job ~id:1 ~size:0.5 ~arrival:1.0 ~computer:0 ~completion:2.0 in
  match Journal_file.parse (Journal.to_string j) with
  | Error _ -> Alcotest.fail "journal must parse"
  | Ok jf ->
    Alcotest.(check string)
      "csv lines"
      "kind,time,job_id,computer,size,response_time,response_ratio\n\
       dispatch,1.000000,1,0,0.500000,,\n\
       completion,2.000000,1,0,,1.000000,2.000000\n"
      (Export.csv jf)

let trace_suite =
  [
    test "trace: dispatch/completion record contents" trace_record_contents;
    test "trace: csv golden output" trace_csv_golden;
  ]

let suite = suite @ probe_suite @ trace_suite

(* ------------------------------------------------------------------ *)
(* Little's law and occupancy                                          *)

let littles_law_single_server () =
  (* M/M/1-PS at rho = 0.6: L = rho/(1-rho) = 1.5, and L = lambda*W. *)
  let speeds = [| 1.0 |] in
  let rho = 0.6 in
  let workload = Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:300_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.wrr) ()
  in
  let r = Simulation.run cfg in
  let l = r.Simulation.per_computer.(0).Simulation.mean_jobs in
  check_close ~rel:0.08 "L = rho/(1-rho)" (0.6 /. 0.4) l;
  (* Little: L = lambda * W with lambda = rho (mu = 1, speed 1) *)
  let w = r.Simulation.metrics.Core.Metrics.mean_response_time in
  check_close ~rel:0.08 "L = lambda W" (rho *. w) l

let littles_law_heterogeneous () =
  (* Per-computer Little's law under ORR on the tractable workload:
     L_i ~ lambda_i * W_i with lambda_i = alpha_i * lambda.  Verify the
     aggregate identity instead (less noisy): sum L_i = lambda * W. *)
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let rho = 0.6 in
  let workload = Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:300_000.0 ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let r = Simulation.run cfg in
  let total_l =
    Array.fold_left (fun acc pc -> acc +. pc.Simulation.mean_jobs) 0.0
      r.Simulation.per_computer
  in
  let lambda = rho *. Core.Speeds.total speeds in
  let w = r.Simulation.metrics.Core.Metrics.mean_response_time in
  check_close ~rel:0.08 "sum L_i = lambda W" (lambda *. w) total_l

let occupancy_all_disciplines () =
  (* Occupancy accounting works for every server model: a single size-4
     job over a [0, 8] window gives L = 0.5 everywhere. *)
  List.iter
    (fun discipline ->
      let speeds = [| 1.0 |] in
      let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
      ignore workload;
      let engine = Statsched_des.Engine.create () in
      let server =
        match discipline with
        | `Ps ->
          Statsched_queueing.Ps_server.to_server
            (Statsched_queueing.Ps_server.create ~engine ~speed:1.0
               ~on_departure:(fun _ -> ())
               ())
        | `Serial order ->
          Statsched_queueing.Serial_server.create ~engine ~speed:1.0 ~order
            ~on_departure:(fun _ -> ())
            ()
      in
      ignore
        (Statsched_des.Engine.schedule_at engine ~time:0.0 (fun _ ->
             server.Statsched_queueing.Server_intf.submit
               (Job.create ~id:1 ~size:4.0 ~arrival:0.0)));
      Statsched_des.Engine.run ~until:8.0 engine;
      check_close ~rel:1e-6
        (Printf.sprintf "L = 0.5 (%s)" server.Statsched_queueing.Server_intf.discipline)
        0.5
        (server.Statsched_queueing.Server_intf.mean_in_system ()))
    Statsched_queueing.Serial_server.
      [ `Ps; `Serial Fcfs; `Serial Srpt; `Serial (Rr 0.5) ]

let littles_suite =
  [
    slow_test "little's law: M/M/1-PS" littles_law_single_server;
    slow_test "little's law: heterogeneous aggregate" littles_law_heterogeneous;
    test "occupancy: single-job fixture across disciplines" occupancy_all_disciplines;
  ]

let suite = suite @ littles_suite

(* ------------------------------------------------------------------ *)
(* Hot-path contracts: batched gap sampling and per-job allocation     *)

let gap_source_matches_direct () =
  (* [Workload.gap_source] pre-samples interarrival gaps in batches from
     the arrivals stream.  Batching must be bit-invisible: the k-th gap
     equals the k-th direct draw from an identically seeded RNG, across
     refill boundaries (batch = 16, 100 draws spans 7 refills). *)
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let w = Workload.paper_default ~rho:0.7 ~speeds in
  let direct_rng = Statsched_prng.Rng.create ~seed:99L () in
  let batched_rng = Statsched_prng.Rng.create ~seed:99L () in
  let src = Workload.gap_source ~batch:16 w ~rng:batched_rng in
  for k = 0 to 99 do
    let direct = Statsched_dist.Distribution.sample w.Workload.interarrival direct_rng in
    let batched = Workload.next_gap src in
    check_float ~eps:0.0 (Printf.sprintf "gap %d" k) direct batched
  done

let per_job_allocation_bounded () =
  (* The dispatch -> service -> departure cycle recycles job records and
     pre-samples gaps, so steady-state allocation per job is a small
     constant: 7.5 words on this run (4·10⁵ s: 6.1), the boxes of the
     job's size, arrival and completion fields.  One more per-job box,
     closure or option (2+ words) fails the bound.  So does a build with
     -opaque (`--profile dev`), which stops cross-module inlining and
     costs about 65 words per job. *)
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:2.0e4 ~warmup:5.0e3 ~seed:7L ~speeds
      ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  (* Warm run: first-touch allocations (servers, histograms, freelist
     growth) are one-time costs, not per-job ones. *)
  ignore (Simulation.run ~sanitize:false cfg);
  Gc.full_major ();
  let before = Gc.minor_words () in
  let result = Simulation.run ~sanitize:false cfg in
  let delta = Gc.minor_words () -. before in
  let jobs = float_of_int result.Simulation.total_arrivals in
  Alcotest.(check bool) "enough jobs to average over" true (jobs > 1_000.0);
  let per_job = delta /. jobs in
  if per_job > 9.0 then
    Alcotest.failf "hot path allocates %.1f words/job (bound: 9)" per_job

let rr_allocation_per_arrival () =
  (* RR requeues a job at the end of every quantum, and a Table 3 job
     takes hundreds of 0.25 s slices, so a slice must allocate nothing:
     the remaining work is stored as a raw double, the ready list is a
     ring buffer, the runner slot holds no option and the slot's delay
     reaches the inlined [Engine.arm] unboxed.  What is left, 15.9 words
     per arrival, is per job: its ready-list entry and its fields' boxes.
     One word per slice would add about 300. *)
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ~discipline:(Simulation.Rr 0.25) ~horizon:2.0e4
      ~warmup:5.0e3 ~seed:7L ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  ignore (Simulation.run ~sanitize:false cfg);
  Gc.full_major ();
  let before = Gc.minor_words () in
  let result = Simulation.run ~sanitize:false cfg in
  let per_arrival =
    (Gc.minor_words () -. before) /. float_of_int result.Simulation.total_arrivals
  in
  if per_arrival > 16.5 then
    Alcotest.failf "RR(0.25) allocates %.1f minor words/arrival (bound: 16.5)"
      per_arrival

let hot_path_suite =
  [
    test "workload: batched gap source bit-identical to direct draws"
      gap_source_matches_direct;
    slow_test "simulation: steady-state allocation bounded per job"
      per_job_allocation_bounded;
    slow_test "simulation: RR requeue stores remaining work unboxed"
      rr_allocation_per_arrival;
  ]

let suite = suite @ hot_path_suite
