(* The domain-pool [Par.map] and the determinism guarantee of the
   parallel replication harness: fanning replications across domains
   must be bitwise invisible in the results. *)

open Test_util
module Par = Statsched_par.Par
module E = Statsched_experiments
module Core = Statsched_core
module Cluster = Statsched_cluster
module Confidence = Statsched_stats.Confidence
module Hdr = Statsched_obs.Hdr_histogram
module Clock = Statsched_obs.Clock

(* ------------------------------------------------------------------ *)
(* Par.map                                                             *)

let map_matches_sequential () =
  let f i = (i * i) + 1 in
  Alcotest.(check (list int)) "jobs=1" (List.init 10 f) (Par.map ~jobs:1 10 f);
  Alcotest.(check (list int)) "jobs=4" (List.init 10 f) (Par.map ~jobs:4 10 f);
  Alcotest.(check (list int)) "jobs > n" (List.init 3 f) (Par.map ~jobs:8 3 f);
  Alcotest.(check (list int)) "empty" [] (Par.map ~jobs:4 0 f);
  Alcotest.(check (list int))
    "many items, few domains"
    (List.init 100 f)
    (Par.map ~jobs:3 100 f)

let map_array_matches () =
  let f i = 2 * i in
  Alcotest.(check (array int))
    "map_array ordered" (Array.init 25 f)
    (Par.map_array ~jobs:4 25 f)

let map_validation () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Par.map: jobs < 1")
    (fun () -> ignore (Par.map ~jobs:0 4 Fun.id));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Par.map: negative length") (fun () ->
      ignore (Par.map ~jobs:2 (-1) Fun.id))

let map_propagates_exception () =
  Alcotest.check_raises "worker failure re-raised in the caller"
    (Failure "boom 3") (fun () ->
      ignore (Par.map ~jobs:4 16 (fun i -> if i = 3 then failwith "boom 3" else i)))

(* The bugfix contract: the sequential path must never touch the domain
   pool.  [Par.spawn_count] is a monotonic lifetime counter, so "no new
   spawns" is checked as a before/after delta regardless of what other
   tests in this binary have already run. *)
let jobs1_spawns_no_domains () =
  let before = Par.spawn_count () in
  ignore (Par.map ~jobs:1 64 (fun i -> i * i));
  ignore (Par.map_array ~jobs:1 64 float_of_int);
  ignore (Par.map ~jobs:1 0 Fun.id);
  Alcotest.(check int) "map ~jobs:1 spawned no domains" before (Par.spawn_count ());
  ignore (Par.map ~jobs:2 4 Fun.id);
  Alcotest.(check bool) "map ~jobs:2 does spawn" true (Par.spawn_count () > before)

(* Spin until [cond] holds or [seconds] of wall time pass; returns
   whether it held. *)
let wait_until ?(seconds = 5.0) cond =
  let start = Clock.now () in
  while (not (cond ())) && Clock.elapsed ~since:start < seconds do
    Domain.cpu_relax ()
  done;
  cond ()

(* A batch of exactly [jobs] indices must run all at once: each call
   announces itself and waits for the other.  If one index ran alone
   before the rest started, it would time out waiting. *)
let batch_of_jobs_runs_concurrently () =
  let arrived = Atomic.make 0 in
  let f _ =
    Atomic.incr arrived;
    wait_until (fun () -> Atomic.get arrived >= 2)
  in
  Alcotest.(check (list bool)) "both calls overlapped" [ true; true ] (Par.map ~jobs:2 2 f)

(* Index 0 raises only once index 1 has started; index 1 then runs on
   for a while.  The exception must surface only after index 1 is done,
   i.e. after every domain was joined. *)
let exception_at_index0_after_join () =
  let started1 = Atomic.make false in
  let finished1 = Atomic.make false in
  let f k =
    if k = 0 then begin
      ignore (wait_until (fun () -> Atomic.get started1));
      failwith "boom 0"
    end
    else begin
      Atomic.set started1 true;
      let start = Clock.now () in
      ignore (wait_until (fun () -> Clock.elapsed ~since:start > 0.1));
      Atomic.set finished1 true;
      k
    end
  in
  Alcotest.check_raises "index 0's failure re-raised" (Failure "boom 0") (fun () ->
      ignore (Par.map ~jobs:2 2 f));
  Alcotest.(check bool) "index 1 ran to completion before the raise" true
    (Atomic.get finished1)

let spawns_min_jobs_n () =
  List.iter
    (fun (jobs, n) ->
      let before = Par.spawn_count () in
      ignore (Par.map ~jobs n Fun.id);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d n=%d spawns min (jobs-1) (n-1)" jobs n)
        (min (jobs - 1) (n - 1))
        (Par.spawn_count () - before))
    [ (2, 2); (4, 2); (2, 10); (3, 10); (8, 3); (4, 4) ]

(* Workers run with a 32 Ki-word minor heap when each has a core of its
   own; the caller gets its own size back afterwards, whether [map]
   returns or raises. *)
let caller_minor_heap_restored () =
  let minor () = (Gc.get ()).Gc.minor_heap_size in
  let original = minor () in
  let custom = 64 * 1024 in
  Fun.protect
    ~finally:(fun () -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = original })
    (fun () ->
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = custom };
      let inside = Par.map ~jobs:2 4 (fun _ -> minor ()) in
      if Par.available_parallelism () >= 2 then
        Alcotest.(check (list int)) "workers use 32 Ki words" [ 32768; 32768; 32768; 32768 ]
          inside;
      Alcotest.(check int) "restored after return" custom (minor ());
      let jobs = Par.available_parallelism () + 1 in
      let oversubscribed = Par.map ~jobs jobs (fun _ -> minor ()) in
      Alcotest.(check bool) "more domains than cores keep their minor heaps" false
        (List.mem 32768 oversubscribed);
      Alcotest.(check int) "restored after an oversubscribed map" custom (minor ());
      Alcotest.check_raises "raising map" (Failure "boom") (fun () ->
          ignore (Par.map ~jobs:2 4 (fun k -> if k = 2 then failwith "boom" else k)));
      Alcotest.(check int) "restored after raise" custom (minor ()))

let default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Par.default_jobs () >= 1);
  Alcotest.(check bool)
    "available_parallelism >= 1" true
    (Par.available_parallelism () >= 1)

(* ------------------------------------------------------------------ *)
(* Determinism of the replication harness                              *)

(* Bitwise structural comparison of two replication results. *)
let check_result msg (a : Cluster.Simulation.result) (b : Cluster.Simulation.result) =
  let f = check_float ~eps:0.0 in
  f (msg ^ ": mean response time") a.Cluster.Simulation.metrics.Core.Metrics.mean_response_time
    b.Cluster.Simulation.metrics.Core.Metrics.mean_response_time;
  f (msg ^ ": mean response ratio") a.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio
    b.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio;
  f (msg ^ ": fairness") a.Cluster.Simulation.metrics.Core.Metrics.fairness
    b.Cluster.Simulation.metrics.Core.Metrics.fairness;
  f (msg ^ ": availability") a.Cluster.Simulation.metrics.Core.Metrics.availability
    b.Cluster.Simulation.metrics.Core.Metrics.availability;
  Alcotest.(check int) (msg ^ ": measured jobs")
    a.Cluster.Simulation.metrics.Core.Metrics.jobs
    b.Cluster.Simulation.metrics.Core.Metrics.jobs;
  Alcotest.(check int) (msg ^ ": lost jobs")
    a.Cluster.Simulation.metrics.Core.Metrics.lost_jobs
    b.Cluster.Simulation.metrics.Core.Metrics.lost_jobs;
  Alcotest.(check int) (msg ^ ": total arrivals") a.Cluster.Simulation.total_arrivals
    b.Cluster.Simulation.total_arrivals;
  Alcotest.(check int) (msg ^ ": events executed") a.Cluster.Simulation.events_executed
    b.Cluster.Simulation.events_executed;
  Alcotest.(check int) (msg ^ ": heap high-water") a.Cluster.Simulation.heap_high_water
    b.Cluster.Simulation.heap_high_water;
  check_array ~eps:0.0 (msg ^ ": dispatch fractions")
    a.Cluster.Simulation.dispatch_fractions b.Cluster.Simulation.dispatch_fractions;
  Alcotest.(check int) (msg ^ ": per-computer length")
    (Array.length a.Cluster.Simulation.per_computer)
    (Array.length b.Cluster.Simulation.per_computer);
  Array.iteri
    (fun i (pa : Cluster.Simulation.per_computer) ->
      let pb = b.Cluster.Simulation.per_computer.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: computer %d dispatched" msg i)
        pa.Cluster.Simulation.dispatched pb.Cluster.Simulation.dispatched;
      Alcotest.(check int)
        (Printf.sprintf "%s: computer %d completed" msg i)
        pa.Cluster.Simulation.completed pb.Cluster.Simulation.completed;
      f
        (Printf.sprintf "%s: computer %d utilization" msg i)
        pa.Cluster.Simulation.utilization pb.Cluster.Simulation.utilization)
    a.Cluster.Simulation.per_computer;
  f (msg ^ ": ratio histogram sum")
    (Hdr.sum a.Cluster.Simulation.response_ratio_histogram)
    (Hdr.sum b.Cluster.Simulation.response_ratio_histogram);
  Alcotest.(check int) (msg ^ ": ratio histogram count")
    (Hdr.count a.Cluster.Simulation.response_ratio_histogram)
    (Hdr.count b.Cluster.Simulation.response_ratio_histogram)

(* Exponential transient degradation to [factor] of nominal speed. *)
let slowdowns ~mtbf ~mttr ~factor =
  Cluster.Fault.process ~degrade:factor
    ~uptime:(Statsched_dist.Exponential.of_mean mtbf)
    ~downtime:(Statsched_dist.Exponential.of_mean mttr)
    ()

(* >= 4 scheduler/fault combos crossed with queueing disciplines, as
   the acceptance criterion demands. *)
let combos =
  let crash_plan = Cluster.Fault.plan [ Cluster.Fault.crashes ~mtbf:2_000.0 ~mttr:150.0 () ] in
  let slow_plan =
    Cluster.Fault.plan ~on_failure:Cluster.Fault.Drop ~reaction:Cluster.Fault.Oblivious
      [ slowdowns ~mtbf:1_500.0 ~mttr:200.0 ~factor:0.25 ]
  in
  [
    ("ORR/Ps/reliable", Cluster.Scheduler.static Core.Policy.orr, Cluster.Simulation.Ps, None);
    ("WRAN/Ps/crashes", Cluster.Scheduler.static Core.Policy.wran, Cluster.Simulation.Ps,
     Some crash_plan);
    ("LeastLoad/Fcfs/reliable", Cluster.Scheduler.least_load_paper, Cluster.Simulation.Fcfs,
     None);
    ("SITA/Srpt/slowdowns", Cluster.Scheduler.sita_paper (), Cluster.Simulation.Srpt,
     Some slow_plan);
    ("ORR/Rr/crashes", Cluster.Scheduler.static Core.Policy.orr,
     Cluster.Simulation.Rr 0.25, Some crash_plan);
  ]

let det_scale = { E.Config.horizon = 6_000.0; warmup = 1_500.0; reps = 3 }

let det_spec (scheduler, discipline, faults) =
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  E.Runner.make_spec ~discipline ?faults ~speeds ~workload ~scheduler ()

let jobs4_equals_jobs1 () =
  List.iter
    (fun (name, scheduler, discipline, faults) ->
      let spec = det_spec (scheduler, discipline, faults) in
      let seq = E.Runner.replicate ~jobs:1 ~scale:det_scale spec in
      let par = E.Runner.replicate ~jobs:4 ~scale:det_scale spec in
      Alcotest.(check int) (name ^ ": replication count") (List.length seq)
        (List.length par);
      List.iteri
        (fun k a -> check_result (Printf.sprintf "%s rep %d" name k) a (List.nth par k))
        seq)
    combos

let merged_point_identical () =
  (* The pooled histograms and derived quantiles of the aggregated point
     must be identical too — the merge order is the replication order,
     independent of which domain ran which replication.  Checked for
     jobs in {2, 4} against the jobs:1 baseline across three
     scheduler/discipline/fault combos (reliable, crashes, slowdowns). *)
  List.iter
    (fun idx ->
      let name, scheduler, discipline, faults = List.nth combos idx in
      let spec = det_spec (scheduler, discipline, faults) in
      let p1 = E.Runner.measure ~jobs:1 ~scale:det_scale spec in
      List.iter
        (fun jobs ->
          let pn = E.Runner.measure ~jobs ~scale:det_scale spec in
          let msg what = Printf.sprintf "%s jobs=%d: %s" name jobs what in
          let f = check_float ~eps:0.0 in
          f (msg "point mean ratio") p1.E.Runner.mean_response_ratio.Confidence.mean
            pn.E.Runner.mean_response_ratio.Confidence.mean;
          f (msg "point half-width")
            p1.E.Runner.mean_response_ratio.Confidence.half_width
            pn.E.Runner.mean_response_ratio.Confidence.half_width;
          f (msg "pooled median") p1.E.Runner.median_ratio pn.E.Runner.median_ratio;
          f (msg "pooled p99") p1.E.Runner.p99_ratio pn.E.Runner.p99_ratio;
          f (msg "pooled histogram sum")
            (Hdr.sum p1.E.Runner.response_ratio_histogram)
            (Hdr.sum pn.E.Runner.response_ratio_histogram);
          Alcotest.(check int) (msg "pooled histogram count")
            (Hdr.count p1.E.Runner.response_time_histogram)
            (Hdr.count pn.E.Runner.response_time_histogram);
          f (msg "availability") p1.E.Runner.availability pn.E.Runner.availability;
          f (msg "jobs/rep") p1.E.Runner.jobs_per_rep pn.E.Runner.jobs_per_rep)
        [ 2; 4 ])
    [ 0; 1; 3 ]

(* The many-server dispatchers at n = 10^3: the tournament-tree
   least-load (JSQ with d = n), sampled JSQ(d) and JIQ keep persistent
   per-decision state (tree, index pools, idle stacks), so fanning
   replications across domains must still be bitwise invisible. *)
let n1e3_dispatchers_across_jobs () =
  let n = 1_000 in
  let speeds = E.Ext_scale.speeds_for n in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let scale = { E.Config.horizon = 1_200.0; warmup = 300.0; reps = 2 } in
  List.iter
    (fun (name, scheduler) ->
      let spec = E.Runner.make_spec ~speeds ~workload ~scheduler () in
      let seq = E.Runner.replicate ~jobs:1 ~scale spec in
      List.iter
        (fun jobs ->
          let par = E.Runner.replicate ~jobs ~scale spec in
          Alcotest.(check int)
            (Printf.sprintf "%s n=1000 jobs=%d: replication count" name jobs)
            (List.length seq) (List.length par);
          List.iteri
            (fun k a ->
              check_result
                (Printf.sprintf "%s n=1000 jobs=%d rep %d" name jobs k)
                a (List.nth par k))
            seq)
        [ 2; 4 ])
    [
      ("least-load-tree", Cluster.Scheduler.jsq ~d:n ());
      ("jsq-d", Cluster.Scheduler.jsq ~d:2 ());
      ("jiq", Cluster.Scheduler.jiq);
    ]

(* Random-spec property across scheduler kinds x fault plans x
   disciplines: parallel replication is structurally equal to
   sequential for every spec. *)
let prop_random_spec_deterministic =
  let spec_gen =
    QCheck2.Gen.(
      let* speeds = speeds_gen in
      let* rho = rho_gen in
      let* scheduler =
        oneofl
          [
            Cluster.Scheduler.static Core.Policy.orr;
            Cluster.Scheduler.static Core.Policy.wrr;
            Cluster.Scheduler.static Core.Policy.oran;
            Cluster.Scheduler.static Core.Policy.wran;
            Cluster.Scheduler.least_load_paper;
            Cluster.Scheduler.least_load_instant;
            Cluster.Scheduler.two_choices ();
            Cluster.Scheduler.sita_paper ();
            Cluster.Scheduler.stale_least_load ~poll_period:50.0 ();
          ]
      in
      let* discipline =
        oneofl
          [
            Cluster.Simulation.Ps;
            Cluster.Simulation.Fcfs;
            Cluster.Simulation.Srpt;
            Cluster.Simulation.Rr 0.5;
          ]
      in
      let* faults =
        oneofl
          [
            None;
            Some (Cluster.Fault.plan [ Cluster.Fault.crashes ~mtbf:1_000.0 ~mttr:100.0 () ]);
            Some
              (Cluster.Fault.plan ~on_failure:Cluster.Fault.Drop
                 [ slowdowns ~mtbf:900.0 ~mttr:120.0 ~factor:0.5 ]);
          ]
      in
      return (speeds, rho, scheduler, discipline, faults))
  in
  qcheck ~count:10 "replicate ~jobs:4 == ~jobs:1 for random specs" spec_gen
    (fun (speeds, rho, scheduler, discipline, faults) ->
      let workload = Cluster.Workload.paper_default ~rho ~speeds in
      let spec = E.Runner.make_spec ~discipline ?faults ~speeds ~workload ~scheduler () in
      let scale = { E.Config.horizon = 2_000.0; warmup = 500.0; reps = 2 } in
      let seq = E.Runner.replicate ~jobs:1 ~scale spec in
      let par = E.Runner.replicate ~jobs:4 ~scale spec in
      List.length seq = List.length par
      && List.for_all2
           (fun (a : Cluster.Simulation.result) (b : Cluster.Simulation.result) ->
             Float.equal a.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio
               b.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio
             && Float.equal a.Cluster.Simulation.metrics.Core.Metrics.mean_response_time
                  b.Cluster.Simulation.metrics.Core.Metrics.mean_response_time
             && a.Cluster.Simulation.metrics.Core.Metrics.jobs
                = b.Cluster.Simulation.metrics.Core.Metrics.jobs
             && a.Cluster.Simulation.total_arrivals = b.Cluster.Simulation.total_arrivals
             && a.Cluster.Simulation.events_executed
                = b.Cluster.Simulation.events_executed)
           seq par)

let suite =
  [
    test "par: map matches List.init" map_matches_sequential;
    test "par: map_array matches Array.init" map_array_matches;
    test "par: argument validation" map_validation;
    test "par: worker exception propagates" map_propagates_exception;
    test "par: jobs=1 spawns no domains" jobs1_spawns_no_domains;
    test "par: a batch of jobs indices runs concurrently" batch_of_jobs_runs_concurrently;
    test "par: exception at index 0 re-raised after the join" exception_at_index0_after_join;
    test "par: spawns exactly min (jobs-1) (n-1) domains" spawns_min_jobs_n;
    test "par: caller's minor heap restored" caller_minor_heap_restored;
    test "par: default jobs sane" default_jobs_positive;
    slow_test "runner: jobs:4 bitwise-equal to jobs:1 (5 combos)" jobs4_equals_jobs1;
    slow_test "runner: merged point identical across jobs {2,4} (3 combos)"
      merged_point_identical;
    slow_test "runner: n=10^3 dispatchers bitwise-equal across jobs {1,2,4}"
      n1e3_dispatchers_across_jobs;
    prop_random_spec_deterministic;
  ]
