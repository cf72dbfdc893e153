open Test_util
module Cluster = Statsched_cluster
module Core = Statsched_core
module Workload = Cluster.Workload
module Simulation = Cluster.Simulation
module Scheduler = Cluster.Scheduler
module Fault = Cluster.Fault
module Theory = Statsched_queueing.Theory
module Confidence = Statsched_stats.Confidence
module E = Statsched_experiments
module Runner = E.Runner

(* ------------------------------------------------------------------ *)
(* Plan construction and validation                                    *)

let plan_construction () =
  let p = Fault.exponential ~mtbf:1000.0 ~mttr:50.0 () in
  Alcotest.(check bool) "not none" false (Fault.is_none p);
  Alcotest.(check bool) "none is none" true (Fault.is_none Fault.none);
  Fault.validate ~n:4 p;
  let targeted = Fault.plan [ Fault.crashes ~computers:[ 3 ] ~mtbf:1.0 ~mttr:1.0 () ] in
  Fault.validate ~n:4 targeted;
  Alcotest.check_raises "out-of-range computer"
    (Invalid_argument "Fault.validate: computer 3 outside [0,3)") (fun () ->
      Fault.validate ~n:3 targeted);
  List.iter
    (fun p ->
      Alcotest.(check (option string))
        "policy name round-trips"
        (Some (Fault.on_failure_name p))
        (Option.map Fault.on_failure_name
           (Fault.on_failure_of_string (Fault.on_failure_name p))))
    [ Fault.Drop; Fault.Requeue; Fault.Resume ];
  Alcotest.(check bool) "unknown policy" true
    (Fault.on_failure_of_string "explode" = None);
  Alcotest.check_raises "degrade >= 1 rejected"
    (Invalid_argument "Fault.process: degrade outside [0,1)") (fun () ->
      ignore
        (Fault.process ~degrade:1.0
           ~uptime:(Statsched_dist.Exponential.of_mean 1.0)
           ~downtime:(Statsched_dist.Exponential.of_mean 1.0)
           ()))

(* ------------------------------------------------------------------ *)
(* Zero-fault plans must not perturb the simulator                     *)

let run_table3 ?faults ~scheduler () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ?faults ~horizon:40_000.0 ~warmup:10_000.0
      ~speeds ~workload ~scheduler ()
  in
  Simulation.run cfg

let zero_fault_bit_identity () =
  List.iter
    (fun (name, scheduler) ->
      let base = run_table3 ~scheduler () in
      let with_empty_plan = run_table3 ~faults:Fault.none ~scheduler () in
      check_float ~eps:0.0
        (name ^ ": mean response time bit-identical")
        base.Simulation.metrics.Core.Metrics.mean_response_time
        with_empty_plan.Simulation.metrics.Core.Metrics.mean_response_time;
      check_float ~eps:0.0
        (name ^ ": fairness bit-identical")
        base.Simulation.metrics.Core.Metrics.fairness
        with_empty_plan.Simulation.metrics.Core.Metrics.fairness;
      Alcotest.(check int)
        (name ^ ": same event count")
        base.Simulation.events_executed with_empty_plan.Simulation.events_executed;
      Alcotest.(check int)
        (name ^ ": same arrivals")
        base.Simulation.total_arrivals with_empty_plan.Simulation.total_arrivals;
      check_array ~eps:0.0
        (name ^ ": dispatch fractions bit-identical")
        base.Simulation.dispatch_fractions
        with_empty_plan.Simulation.dispatch_fractions;
      Alcotest.(check bool)
        (name ^ ": per-computer stats identical")
        true
        (base.Simulation.per_computer = with_empty_plan.Simulation.per_computer);
      Alcotest.(check bool)
        (name ^ ": no fault summary")
        true
        (base.Simulation.fault_summary = None
        && with_empty_plan.Simulation.fault_summary = None);
      check_float ~eps:0.0 (name ^ ": availability is 1")
        1.0 base.Simulation.metrics.Core.Metrics.availability;
      Alcotest.(check int) (name ^ ": no lost jobs") 0
        base.Simulation.metrics.Core.Metrics.lost_jobs)
    [
      ("ORR", Scheduler.static Core.Policy.orr);
      ("LeastLoad", Scheduler.least_load_paper);
      ("AdaptiveORR", Scheduler.adaptive_orr ());
    ]

let faulty_run_is_deterministic () =
  let faults = Fault.exponential ~mtbf:2000.0 ~mttr:50.0 () in
  let a = run_table3 ~faults ~scheduler:(Scheduler.static Core.Policy.orr) () in
  let b = run_table3 ~faults ~scheduler:(Scheduler.static Core.Policy.orr) () in
  Alcotest.(check bool) "identical results under the same seed" true
    (a.Simulation.metrics = b.Simulation.metrics
    && a.Simulation.fault_summary = b.Simulation.fault_summary
    && a.Simulation.events_executed = b.Simulation.events_executed)

(* ------------------------------------------------------------------ *)
(* Deterministic availability accounting                               *)

let periodic_crash_accounting () =
  (* One computer, down 25 s out of every 125 s: failures at t = 100,
     225, ..., 975 -> 8 failures and exactly 200 s of lost capacity in
     the 1000 s window. *)
  let speeds = [| 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.3 ~mean_size:1.0 ~speeds in
  let faults =
    Fault.plan ~on_failure:Fault.Resume
      [ Fault.periodic ~every:100.0 ~duration:25.0 () ]
  in
  let cfg =
    Simulation.default_config ~faults ~horizon:1000.0 ~warmup:0.0 ~speeds
      ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let r = Simulation.run cfg in
  match r.Simulation.fault_summary with
  | None -> Alcotest.fail "expected a fault summary"
  | Some s ->
    Alcotest.(check int) "failures" 8 s.Fault.failures;
    check_float ~eps:1e-9 "lost capacity" 200.0 s.Fault.downtime.(0);
    check_float ~eps:1e-12 "availability" 0.8 s.Fault.availability;
    Alcotest.(check int) "nothing lost under Resume" 0 s.Fault.lost_jobs;
    check_float ~eps:1e-12 "metrics agree with summary" 0.8
      r.Simulation.metrics.Core.Metrics.availability

let degrade_accounting () =
  (* Speed halved (degrade 0.5) for 100 s out of every 200 s: no
     up->down transition ever reaches rate 0, so no failures and no
     drained jobs, but half the capacity of the degraded windows is
     lost: 5 windows x 100 s x 0.5 = 250 s. *)
  let speeds = [| 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.2 ~mean_size:1.0 ~speeds in
  let faults =
    Fault.plan ~on_failure:Fault.Drop
      [ Fault.periodic ~degrade:0.5 ~every:100.0 ~duration:100.0 () ]
  in
  let cfg =
    Simulation.default_config ~faults ~horizon:1000.0 ~warmup:0.0 ~speeds
      ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let r = Simulation.run cfg in
  match r.Simulation.fault_summary with
  | None -> Alcotest.fail "expected a fault summary"
  | Some s ->
    Alcotest.(check int) "a slowdown is not a failure" 0 s.Fault.failures;
    Alcotest.(check int) "no jobs lost" 0 s.Fault.lost_jobs;
    check_float ~eps:1e-9 "lost capacity" 250.0 s.Fault.downtime.(0);
    check_float ~eps:1e-12 "availability" 0.75 s.Fault.availability;
    Alcotest.(check bool) "jobs still complete" true
      (r.Simulation.metrics.Core.Metrics.jobs > 0)

let warmup_clipping () =
  (* A single outage entirely inside the warm-up period must not count
     against the measured window. *)
  let speeds = [| 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.3 ~mean_size:1.0 ~speeds in
  let faults =
    Fault.plan ~on_failure:Fault.Resume
      [ Fault.periodic ~every:100.0 ~duration:50.0 ~computers:[ 0 ] () ]
  in
  (* down [100,150) then up again at 150; horizon 250 with warmup 200
     leaves a fault-free measured window... except the next outage at
     t=250 exactly touches the horizon. Use horizon 240. *)
  let cfg =
    Simulation.default_config ~faults ~horizon:240.0 ~warmup:200.0 ~speeds
      ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let r = Simulation.run cfg in
  match r.Simulation.fault_summary with
  | None -> Alcotest.fail "expected a fault summary"
  | Some s ->
    Alcotest.(check int) "failure still counted (whole run)" 1 s.Fault.failures;
    check_float ~eps:1e-9 "no lost capacity in window" 0.0 s.Fault.downtime.(0);
    check_float ~eps:1e-12 "availability 1 in window" 1.0 s.Fault.availability

(* ------------------------------------------------------------------ *)
(* In-flight-job policies                                              *)

let summary_of ~on_failure =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let faults = Fault.exponential ~on_failure ~mtbf:2000.0 ~mttr:50.0 () in
  let cfg =
    Simulation.default_config ~faults ~horizon:40_000.0 ~warmup:10_000.0
      ~speeds ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let r = Simulation.run cfg in
  (r, Option.get r.Simulation.fault_summary)

let drop_loses_jobs () =
  let r, s = summary_of ~on_failure:Fault.Drop in
  Alcotest.(check bool) "failures occurred" true (s.Fault.failures > 0);
  Alcotest.(check bool) "jobs were lost" true (s.Fault.lost_jobs > 0);
  Alcotest.(check int) "metrics carry the count" s.Fault.lost_jobs
    r.Simulation.metrics.Core.Metrics.lost_jobs;
  Alcotest.(check bool) "availability below 1" true (s.Fault.availability < 1.0)

let requeue_and_resume_lose_nothing () =
  List.iter
    (fun on_failure ->
      let r, s = summary_of ~on_failure in
      Alcotest.(check bool) "failures occurred" true (s.Fault.failures > 0);
      Alcotest.(check int)
        (Fault.on_failure_name on_failure ^ " loses nothing")
        0 s.Fault.lost_jobs;
      Alcotest.(check bool) "still measures jobs" true
        (r.Simulation.metrics.Core.Metrics.jobs > 0))
    [ Fault.Requeue; Fault.Resume ]

(* ------------------------------------------------------------------ *)
(* Scheduler reactions                                                 *)

let dispatch_share_0 (r : Simulation.result) =
  let d = r.Simulation.dispatch_fractions in
  d.(0)

let blacklist_shifts_dispatch () =
  (* Two equal computers; computer 1 is down half the time.  With the
     blacklist reaction the static dispatcher re-runs Algorithm 1 on the
     survivors during outages, so computer 0's dispatch share rises well
     above 1/2; an oblivious scheduler keeps splitting evenly. *)
  let speeds = [| 1.0; 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let run reaction =
    let faults =
      Fault.plan ~on_failure:Fault.Requeue ~reaction
        [ Fault.periodic ~computers:[ 1 ] ~every:500.0 ~duration:500.0 () ]
    in
    let cfg =
      Simulation.default_config ~faults ~horizon:20_000.0 ~warmup:1_000.0
        ~speeds ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
    in
    Simulation.run cfg
  in
  let blacklisted = run Fault.Blacklist in
  let oblivious = run Fault.Oblivious in
  let share_b = dispatch_share_0 blacklisted in
  let share_o = dispatch_share_0 oblivious in
  Alcotest.(check bool)
    (Printf.sprintf "blacklist shifts load to the survivor (%.3f vs %.3f)"
       share_b share_o)
    true
    (share_b > 0.65 && share_b > share_o +. 0.1);
  Alcotest.(check bool) "oblivious keeps splitting evenly" true
    (abs_float (share_o -. 0.5) < 0.1)

let least_load_avoids_down_computer () =
  (* Computer 1 crashes at t=1000 and never recovers; Least-Load must
     never pick it afterwards, so every measured dispatch goes to 0. *)
  let speeds = [| 1.0; 1.0 |] in
  let workload = Workload.poisson_exponential ~rho:0.4 ~mean_size:1.0 ~speeds in
  let faults =
    Fault.plan ~on_failure:Fault.Requeue
      [ Fault.periodic ~computers:[ 1 ] ~every:1000.0 ~duration:1e9 () ]
  in
  let cfg =
    Simulation.default_config ~faults ~horizon:20_000.0 ~warmup:2_000.0
      ~speeds ~workload ~scheduler:Scheduler.least_load_paper ()
  in
  let r = Simulation.run cfg in
  Alcotest.(check int) "no measured dispatch to the dead computer" 0
    r.Simulation.per_computer.(1).Simulation.dispatched;
  Alcotest.(check bool) "survivor takes everything" true
    (r.Simulation.per_computer.(0).Simulation.dispatched > 0);
  Alcotest.(check int) "nothing lost under Requeue" 0
    (Option.get r.Simulation.fault_summary).Fault.lost_jobs

(* ------------------------------------------------------------------ *)
(* Analytic validation: M/M/1 with exponential breakdowns              *)

let mm1_breakdown_matches_theory () =
  (* Single FCFS computer, preempt-resume outages (Resume policy).
     Avi-Itzhak & Naor's Model A gives the exact mean response time;
     the simulated mean must agree within the replication CI (plus a
     small relative slack for the finite horizon). *)
  let speeds = [| 1.0 |] in
  let lambda = 0.5 and mean_size = 1.0 in
  let mtbf = 200.0 and mttr = 10.0 in
  let workload = Workload.poisson_exponential ~rho:0.5 ~mean_size ~speeds in
  let faults = Fault.exponential ~on_failure:Fault.Resume ~mtbf ~mttr () in
  let spec =
    Runner.make_spec ~discipline:Simulation.Fcfs ~faults ~speeds ~workload
      ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let scale = { E.Config.horizon = 400_000.0; warmup = 100_000.0; reps = 5 } in
  let point = Runner.measure ~scale spec in
  let theory =
    Theory.mm1_breakdown_response ~lambda ~mean_size ~speed:1.0 ~mtbf ~mttr
  in
  let ci = point.Runner.mean_response_time in
  let err = abs_float (ci.Confidence.mean -. theory) in
  let slack = ci.Confidence.half_width +. (0.05 *. theory) in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f vs analytic %.4f (err %.4f, slack %.4f)"
       ci.Confidence.mean theory err slack)
    true (err <= slack);
  Alcotest.(check bool) "availability near r/(r+f)" true
    (abs_float (point.Runner.availability -. (mtbf /. (mtbf +. mttr))) < 0.02)

let breakdown_theory_edge_cases () =
  (* Without failures the formula collapses to M/M/1. *)
  let plain =
    Theory.mm1_breakdown_response ~lambda:0.5 ~mean_size:1.0 ~speed:1.0
      ~mtbf:1e15 ~mttr:1e-3
  in
  check_close ~rel:1e-6 "mtbf -> infinity gives M/M/1" 2.0 plain;
  (* Saturated effective utilisation diverges. *)
  let saturated =
    Theory.mm1_breakdown_response ~lambda:0.9 ~mean_size:1.0 ~speed:1.0
      ~mtbf:10.0 ~mttr:10.0
  in
  Alcotest.(check bool) "rho_eff >= 1 diverges" true (saturated = infinity)

(* ------------------------------------------------------------------ *)
(* The sweep experiment plumbing                                       *)

let ext_faults_structure () =
  let tiny = { E.Config.horizon = 20_000.0; warmup = 5_000.0; reps = 2 } in
  let study = { E.Studies.ext_faults with xs = [ 500.0; 50_000.0 ] } in
  let rows = E.Sweep.run ~scale:tiny study in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (_, points) ->
      Alcotest.(check int) "five schedulers" 5 (List.length points);
      List.iter
        (fun (_, p) ->
          Alcotest.(check bool) "availability in (0,1]" true
            (p.Runner.availability > 0.0 && p.Runner.availability <= 1.0))
        points)
    rows;
  let avail mtbf =
    match List.assoc_opt mtbf rows with
    | Some ((_, p) :: _) -> p.Runner.availability
    | _ -> Alcotest.fail "missing row"
  in
  Alcotest.(check bool) "rarer failures -> higher availability" true
    (avail 50_000.0 > avail 500.0);
  let report =
    E.Sweep.to_report study rows ^ "\n" ^ E.Studies.availability_table rows
  in
  Alcotest.(check bool) "report renders" true (String.length report > 200);
  Alcotest.(check int) "one availability line per MTBF" 2
    (List.length
       (List.filter
          (String.starts_with ~prefix:"  MTBF")
          (String.split_on_char '\n' (E.Studies.availability_table rows))))

let suite =
  [
    test "fault: plan construction and validation" plan_construction;
    slow_test "fault: zero-fault plan is bit-identical" zero_fault_bit_identity;
    slow_test "fault: crashy run is deterministic" faulty_run_is_deterministic;
    test "fault: periodic crash accounting" periodic_crash_accounting;
    test "fault: degrade accounting" degrade_accounting;
    test "fault: warm-up clipping" warmup_clipping;
    slow_test "fault: drop loses jobs" drop_loses_jobs;
    slow_test "fault: requeue/resume lose nothing" requeue_and_resume_lose_nothing;
    slow_test "fault: blacklist shifts dispatch to survivors" blacklist_shifts_dispatch;
    slow_test "fault: least-load avoids a dead computer" least_load_avoids_down_computer;
    slow_test "fault: M/M/1 breakdown matches Avi-Itzhak-Naor" mm1_breakdown_matches_theory;
    test "fault: breakdown theory edge cases" breakdown_theory_edge_cases;
    slow_test "fault: ext-faults sweep structure" ext_faults_structure;
  ]
