(* Benchmark harness.

   Two halves:

   1. Bechamel micro-benchmarks — one [Test.make] per paper artefact
      (Table 1, Figures 2-6), measuring the cost of the core operation
      that artefact exercises, plus the simulator substrate.

   2. The reproduction harness — regenerates every table and figure of
      Tang & Chanson (ICPP 2000) and prints the paper-claim checks
      (who wins, by what factor).  Scale comes from the environment:
      QUICK=1 for a smoke run, FULL=1 for the paper's exact methodology
      (4e6 simulated seconds x 10 replications per point; slow).

   Usage: main.exe [micro|macro|figures|ablations|extensions|all]
   (default: all).  micro/macro write BENCH_<BENCH_REV>.json; "macro"
   alone runs just the whole-run DES-throughput measurement. *)

open Bechamel
open Toolkit
module Core = Statsched_core
module Cluster = Statsched_cluster
module Dist = Statsched_dist
module Des = Statsched_des
module E = Statsched_experiments
module Rng = Statsched_prng.Rng

(* ------------------------------------------------------------------ *)
(* Part 1: micro-benchmarks                                            *)

let test_table1_least_load_decision =
  let state = Core.Least_load.create Core.Speeds.table1 in
  let g = Rng.create ~seed:1L () in
  Test.make ~name:"table1/least-load decision (7 computers)"
    (Staged.stage (fun () ->
         let i = Core.Least_load.select ~rng:g state in
         Core.Least_load.job_sent state i;
         Core.Least_load.departure_recorded state i))

let test_fig2_algorithm2_dispatch =
  let d = Core.Dispatch.round_robin E.Fig2.fractions in
  Test.make ~name:"fig2/algorithm 2 dispatch (8 computers)"
    (Staged.stage (fun () -> ignore (Core.Dispatch.select d)))

let test_fig2_random_dispatch =
  let d = Core.Dispatch.random ~rng:(Rng.create ~seed:2L ()) E.Fig2.fractions in
  Test.make ~name:"fig2/random dispatch (8 computers)"
    (Staged.stage (fun () -> ignore (Core.Dispatch.select d)))

let test_fig2_alias_dispatch =
  let d = Core.Dispatch.random_alias ~rng:(Rng.create ~seed:21L ()) E.Fig2.fractions in
  Test.make ~name:"fig2/random dispatch via alias method"
    (Staged.stage (fun () -> ignore (Core.Dispatch.select d)))

let test_scaling_allocation =
  (* Allocation cost vs cluster size: 512 computers. *)
  let speeds = Array.init 512 (fun i -> 1.0 +. float_of_int (i mod 16)) in
  Test.make ~name:"scaling/optimized allocation (512 computers)"
    (Staged.stage (fun () -> ignore (Core.Allocation.optimized ~rho:0.7 speeds)))

let test_scaling_dispatch =
  let alpha = Array.make 512 (1.0 /. 512.0) in
  let total = Array.fold_left ( +. ) 0.0 alpha in
  alpha.(0) <- alpha.(0) +. (1.0 -. total);
  let d = Core.Dispatch.round_robin alpha in
  (* Round-robin select is an O(n) argmin scan per arrival — acceptable at
     n <= 512, but this benchmark keeps the cost visible so a regression
     (or a future cluster-size bump) shows up in BENCH_<rev>.json. *)
  Test.make ~name:"scaling/round-robin dispatch (512 computers)"
    (Staged.stage (fun () -> ignore (Core.Dispatch.select d)))

let test_fig3_allocation =
  let speeds = Core.Speeds.two_class ~n_fast:2 ~fast:20.0 ~n_slow:16 ~slow:1.0 in
  Test.make ~name:"fig3/optimized allocation (18 computers)"
    (Staged.stage (fun () -> ignore (Core.Allocation.optimized ~rho:0.7 speeds)))

let test_fig4_allocation =
  let speeds = Core.Speeds.two_class ~n_fast:10 ~fast:10.0 ~n_slow:10 ~slow:1.0 in
  Test.make ~name:"fig4/optimized allocation (20 computers)"
    (Staged.stage (fun () -> ignore (Core.Allocation.optimized ~rho:0.7 speeds)))

let test_fig5_allocation_table3 =
  Test.make ~name:"fig5/optimized allocation (table 3)"
    (Staged.stage (fun () -> ignore (Core.Allocation.optimized ~rho:0.7 Core.Speeds.table3)))

let test_fig6_estimated_allocation =
  Test.make ~name:"fig6/allocation with load estimate"
    (Staged.stage (fun () ->
         ignore
           (Core.Policy.allocation_of (Core.Policy.orr_estimated 0.77) ~rho:0.7
              Core.Speeds.table3)))

let test_event_queue =
  let q = Des.Event_queue.create () in
  let g = Rng.create ~seed:3L () in
  Test.make ~name:"substrate/event queue add+pop"
    (Staged.stage (fun () ->
         ignore (Des.Event_queue.add q ~time:(Rng.float g) ());
         ignore (Des.Event_queue.pop q)))

let test_hyperexp_sample =
  let d = Dist.Hyperexponential.fit_cv ~mean:2.2 ~cv:3.0 in
  let g = Rng.create ~seed:4L () in
  Test.make ~name:"substrate/hyperexponential sample"
    (Staged.stage (fun () -> ignore (Dist.Distribution.sample d g)))

let test_bounded_pareto_sample =
  let prm = Dist.Bounded_pareto.paper_default in
  let g = Rng.create ~seed:5L () in
  Test.make ~name:"substrate/bounded pareto sample"
    (Staged.stage (fun () -> ignore (Dist.Bounded_pareto.sample prm g)))

let test_end_to_end_second =
  (* One simulated kilo-second of the Table 3 cluster under ORR. *)
  let speeds = Core.Speeds.table3 in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let counter = ref 0 in
  Test.make ~name:"end-to-end/1000 simulated seconds (table 3, ORR)"
    (Staged.stage (fun () ->
         incr counter;
         let cfg =
           Cluster.Simulation.default_config ~horizon:1000.0 ~warmup:0.0
             ~replication:!counter ~speeds ~workload
             ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
         in
         ignore (Cluster.Simulation.run cfg)))

let micro_tests =
  [
    test_table1_least_load_decision;
    test_fig2_algorithm2_dispatch;
    test_fig2_random_dispatch;
    test_fig2_alias_dispatch;
    test_fig3_allocation;
    test_fig4_allocation;
    test_fig5_allocation_table3;
    test_fig6_estimated_allocation;
    test_event_queue;
    test_hyperexp_sample;
    test_bounded_pareto_sample;
    test_scaling_allocation;
    test_scaling_dispatch;
    test_end_to_end_second;
  ]

(* Machine-readable results: BENCH_<rev>.json, one object per micro test
   with the OLS ns/run estimate, plus a "macros" section of whole-run
   measurements (DES events per wall-clock second and friends).  The
   revision label comes from BENCH_REV (e.g. a commit hash set by CI) and
   defaults to "dev", so successive runs can be diffed or tracked without
   scraping the human output. *)
let write_bench_json ~micro ~macros =
  let rev = Option.value ~default:"dev" (Sys.getenv_opt "BENCH_REV") in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let json_string s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\n  \"revision\": %s,\n  \"unit\": \"ns/run\",\n  \"results\": [\n"
        (json_string rev);
      List.iteri
        (fun i (name, ns, r2) ->
          Printf.fprintf oc "    {\"name\": %s, \"ns_per_run\": %.3f%s}%s\n"
            (json_string name) ns
            (match r2 with
            | Some r -> Printf.sprintf ", \"r_square\": %.6f" r
            | None -> "")
            (if i = List.length micro - 1 then "" else ","))
        (List.rev micro);
      output_string oc "  ],\n  \"macros\": [\n";
      List.iteri
        (fun i (name, value) ->
          Printf.fprintf oc "    {\"name\": %s, \"value\": %.3f}%s\n"
            (json_string name) value
            (if i = List.length macros - 1 then "" else ","))
        macros;
      output_string oc "  ]\n}\n");
  Printf.printf "wrote %s (%d micro, %d macro)\n%!" path (List.length micro)
    (List.length macros)

(* Median of an odd number of wall-clock samples: robust against a
   one-off GC pause or scheduler hiccup polluting a single run. *)
let median samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s.(Array.length s / 2)

(* Macro benchmark: seeded quick-scale runs of the Table 3 cluster under
   ORR, reporting the engine's wall-clock throughput from the
   self-profiling counters.  The workload is fixed, so des_events_per_sec
   tracks simulator speed across revisions.  Every wall-clock figure is a
   median of [alternations] repetitions, and the serial/parallel
   replication batches are interleaved A/B/A/B… in one process — timing
   them back-to-back let GC and cache warm-up bias whichever half ran
   second (the original "speedup 0.78" report was largely that bias on a
   single-core runner). *)
let run_macro ~jobs () =
  E.Report.print_section "Macro benchmark: DES engine throughput";
  let alternations = 3 in
  let speeds = Core.Speeds.table3 in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Cluster.Simulation.default_config ~horizon:2.0e5 ~warmup:5.0e4 ~seed:42L
      ~speeds ~workload ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let last_result = ref None in
  let walls = Array.make alternations 0.0 in
  for k = 0 to alternations - 1 do
    let start = Statsched_obs.Clock.now () in
    let result = Cluster.Simulation.run cfg in
    walls.(k) <- Statsched_obs.Clock.elapsed ~since:start;
    last_result := Some result
  done;
  let result = Option.get !last_result in
  let wall = median walls in
  let events = float_of_int result.Cluster.Simulation.events_executed in
  let per_sec = if wall > 0.0 then events /. wall else 0.0 in
  Printf.printf
    "%d events in %.3f s wall (median of %d) = %.0f events/s (heap high-water %d)\n%!"
    result.Cluster.Simulation.events_executed wall alternations per_sec
    result.Cluster.Simulation.heap_high_water;
  (* Observability overhead: bare vs fully-instrumented (metrics +
     bounded journal, both at their defaults) runs, interleaved A/B per
     alternation for the same reason the seq/par batches below are:
     timing the halves back-to-back hands whichever ran second the
     warmed GC and caches.  A longer horizon than the throughput run
     above, so the journal's sampling stride reaches steady state
     instead of charging the whole fill phase to a short window. *)
  let obs_alternations = 15 in
  let obs_cfg =
    Cluster.Simulation.default_config ~horizon:1.0e6 ~warmup:2.5e5 ~seed:42L
      ~speeds ~workload ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let obs_bare_walls = Array.make obs_alternations 0.0 in
  let obs_walls = Array.make obs_alternations 0.0 in
  let obs_identical = ref true in
  (* The bare arm gets the same telemetry + journal allocations as the
     instrumented arm (unused), so the two timed regions see the same
     heap shape and GC pacing and differ only in the recording work. *)
  (* Process CPU time, not wall clock: the overhead gate measures extra
     work done per run, and CPU time is immune to the co-tenant steal
     that dominates wall-clock variance on shared machines.  [Clock.cpu]
     granularity (~10 ms) is ~2% of one run; the median over the pairs
     absorbs the quantization. *)
  let run_bare () =
    let ballast =
      Cluster.Telemetry.create ~journal:(Statsched_obs.Journal.create ()) obs_cfg
    in
    let start = Statsched_obs.Clock.cpu () in
    let result = Cluster.Simulation.run obs_cfg in
    let dt = Statsched_obs.Clock.cpu () -. start in
    ignore (Sys.opaque_identity (Cluster.Telemetry.metric_count ballast));
    (dt, result)
  in
  let run_instrumented () =
    let t =
      Cluster.Telemetry.create ~journal:(Statsched_obs.Journal.create ()) obs_cfg
    in
    let start = Statsched_obs.Clock.cpu () in
    let instrumented =
      Cluster.Simulation.run ~hooks_retain_jobs:false
        ~metric_histograms:(Cluster.Telemetry.histograms t)
        ~on_dispatch:(Cluster.Telemetry.on_dispatch t)
        ~on_completion:(Cluster.Telemetry.on_completion t)
        ~on_drop:(Cluster.Telemetry.on_drop t)
        ~on_rate_change:(Cluster.Telemetry.on_rate_change t)
        obs_cfg
    in
    let dt = Statsched_obs.Clock.cpu () -. start in
    Cluster.Telemetry.finalize t instrumented;
    (dt, instrumented)
  in
  for k = 0 to obs_alternations - 1 do
    (* Alternate which arm runs first within the pair, so whatever bias
       the second run inherits (warmed caches, GC phase) cancels across
       pairs instead of loading one arm. *)
    let (bare_dt, result), (instr_dt, instrumented) =
      if k land 1 = 0 then begin
        let b = run_bare () in
        (b, run_instrumented ())
      end
      else begin
        let i = run_instrumented () in
        (run_bare (), i)
      end
    in
    obs_bare_walls.(k) <- bare_dt;
    obs_walls.(k) <- instr_dt;
    obs_identical :=
      !obs_identical
      && Float.equal
           result.Cluster.Simulation.metrics.Core.Metrics.mean_response_time
           instrumented.Cluster.Simulation.metrics.Core.Metrics
             .mean_response_time
      && result.Cluster.Simulation.events_executed
         = instrumented.Cluster.Simulation.events_executed
  done;
  (* Paired per-alternation ratios: each instrumented run is divided by
     the bare run next to it in time, so slow drift of the machine
     (thermal, co-tenancy) cancels before the median is taken. *)
  let obs_ratio =
    median
      (Array.init obs_alternations (fun k ->
           if obs_bare_walls.(k) > 0.0 then obs_walls.(k) /. obs_bare_walls.(k)
           else 0.0))
  in
  Printf.printf
    "instrumented (metrics + journal): %.3f s vs %.3f s bare (medians of %d \
     pairs) = overhead ratio %.3f (results identical: %b)\n%!"
    (median obs_walls) (median obs_bare_walls) obs_alternations obs_ratio
    !obs_identical;
  if not !obs_identical then
    failwith "macro benchmark: instrumented run diverged from bare run";
  (* Replication-harness throughput: the same cluster as a replication
     batch, sequentially and fanned out over [jobs] domains, interleaved
     seq/par per alternation.  Replication k always draws from RNG
     substream k, so all batches must agree bit-for-bit — checked here on
     every benchmark run. *)
  let spec =
    E.Runner.make_spec ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let mean p = p.E.Runner.mean_response_ratio.Statsched_stats.Confidence.mean in
  (* Sequential and parallel walls of [batch], one pair per alternation;
     fails unless every parallel batch matched its sequential twin. *)
  let time_batch batch =
    let seq_walls = Array.make alternations 0.0 in
    let par_walls = Array.make alternations 0.0 in
    let identical = ref true in
    for k = 0 to alternations - 1 do
      let p_seq, wall_seq = E.Runner.measure_wall ~seed:42L ~jobs:1 ~scale:batch spec in
      let p_par, wall_par = E.Runner.measure_wall ~seed:42L ~jobs ~scale:batch spec in
      seq_walls.(k) <- wall_seq;
      par_walls.(k) <- wall_par;
      identical :=
        !identical
        && Float.equal (mean p_seq) (mean p_par)
        && Float.equal p_seq.E.Runner.jobs_per_rep p_par.E.Runner.jobs_per_rep
        && Float.equal p_seq.E.Runner.pooled_p99_ratio p_par.E.Runner.pooled_p99_ratio
    done;
    if not !identical then
      failwith "macro benchmark: parallel replication results diverged from sequential";
    (seq_walls, par_walls)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let cores = Statsched_par.Par.available_parallelism () in
  let batch = { E.Config.horizon = 5.0e4; warmup = 1.25e4; reps = 8 } in
  let seq_walls, par_walls = time_batch batch in
  let wall_seq = median seq_walls and wall_par = median par_walls in
  let reps = float_of_int batch.E.Config.reps in
  let reps_per_sec = ratio reps wall_par in
  let reps_per_sec_serial = ratio reps wall_seq in
  let speedup = ratio wall_seq wall_par in
  Printf.printf
    "%d replications x%d interleaved: %.3f s sequential, %.3f s on %d domain(s) \
     = %.2f reps/s (speedup %.2fx, %d core(s) available, results identical)\n%!"
    batch.E.Config.reps alternations wall_seq wall_par jobs reps_per_sec speedup
    cores;
  (* A batch of exactly [jobs] replications: one index per domain, so
     the batch is only as fast as the domains' overlap.  An index that
     runs before the others start halves this speed-up at [jobs = 2],
     while the 8-replication batch above still reads well above 1.  The
     speed-up is the median of the per-pair ratios, so a drift in the
     host's speed between alternations cancels within each pair. *)
  let round = { E.Config.horizon = 1.0e6; warmup = 2.5e5; reps = jobs } in
  let round_seq, round_par = time_batch round in
  let round_speedup = median (Array.map2 ratio round_seq round_par) in
  Printf.printf
    "%d replication(s), one per domain, x%d interleaved: %.3f s sequential, %.3f s \
     parallel (speedup %.2fx, median of pair ratios)\n%!"
    jobs alternations (median round_seq) (median round_par) round_speedup;
  (* Many-server regime: one n = 10^4 cell of the scale sweep's
     two-class cluster under the full-information tree dispatcher
     (JSQ with d = n).  This is the configuration the scale sweep's
     acceptance bound watches — 10^4 servers, each re-arming its own
     completion slot in the engine's index — so its throughput is
     tracked as its own pair of macros rather than inferred from the
     six-computer figures above. *)
  let n10k = 10_000 in
  let n10k_speeds = E.Ext_scale.speeds_for n10k in
  let n10k_workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds:n10k_speeds in
  let n10k_jobs = 3.0e5 in
  let n10k_horizon = n10k_jobs /. Cluster.Workload.arrival_rate n10k_workload in
  let n10k_cfg =
    Cluster.Simulation.default_config ~horizon:n10k_horizon
      ~warmup:(0.1 *. n10k_horizon) ~seed:42L ~speeds:n10k_speeds
      ~workload:n10k_workload
      ~scheduler:(Cluster.Scheduler.jsq ~d:n10k ())
      ()
  in
  let n10k_last = ref None in
  let n10k_walls = Array.make alternations 0.0 in
  for k = 0 to alternations - 1 do
    let start = Statsched_obs.Clock.now () in
    let result = Cluster.Simulation.run n10k_cfg in
    n10k_walls.(k) <- Statsched_obs.Clock.elapsed ~since:start;
    n10k_last := Some result
  done;
  let n10k_result = Option.get !n10k_last in
  let n10k_wall = median n10k_walls in
  let n10k_events = float_of_int n10k_result.Cluster.Simulation.events_executed in
  let n10k_jobs_done =
    float_of_int n10k_result.Cluster.Simulation.metrics.Core.Metrics.jobs
  in
  let n10k_events_per_sec = if n10k_wall > 0.0 then n10k_events /. n10k_wall else 0.0 in
  let n10k_jobs_per_sec = if n10k_wall > 0.0 then n10k_jobs_done /. n10k_wall else 0.0 in
  Printf.printf
    "n=10^4 least-load: %d events in %.3f s wall (median of %d) = %.0f events/s, \
     %.0f jobs/s (heap high-water %d)\n%!"
    n10k_result.Cluster.Simulation.events_executed n10k_wall alternations
    n10k_events_per_sec n10k_jobs_per_sec
    n10k_result.Cluster.Simulation.heap_high_water;
  (* Per-decision dispatch cost at n = 10^4, isolated from the engine:
     a full-information select plus the two index updates a dispatch
     implies (send + detected departure on the chosen computer, so the
     load state is stationary across the loop).  Mostly-idle queue
     levels keep thousands of computers tied at the minimum — the
     regime where tie-breaking cost is the whole story. *)
  let decisions = 300_000 in
  let dispatch_walls = Array.make alternations 0.0 in
  for k = 0 to alternations - 1 do
    let ll = Core.Least_load.create n10k_speeds in
    let g = Rng.create ~seed:(Int64.of_int (100 + k)) () in
    for i = 0 to n10k - 1 do
      Core.Least_load.set_load_index ll i (Rng.int g 3)
    done;
    let start = Statsched_obs.Clock.now () in
    let sink = ref 0 in
    for _ = 1 to decisions do
      let s = Core.Least_load.select ~rng:g ll in
      Core.Least_load.job_sent ll s;
      Core.Least_load.departure_recorded ll s;
      sink := !sink + s
    done;
    dispatch_walls.(k) <- Statsched_obs.Clock.elapsed ~since:start;
    ignore (Sys.opaque_identity !sink)
  done;
  let dispatch_ns =
    median dispatch_walls *. 1.0e9 /. float_of_int decisions
  in
  Printf.printf
    "least-load dispatch at n=10^4: %.0f ns/decision (median of %d runs of %d)\n%!"
    dispatch_ns alternations decisions;
  [
    ("des_events_per_sec", per_sec);
    ("des_events_per_sec_n10k", n10k_events_per_sec);
    ("jobs_per_sec_n10k", n10k_jobs_per_sec);
    ("dispatch_ns_per_decision", dispatch_ns);
    ("des_events_total", events);
    ("des_heap_high_water", float_of_int result.Cluster.Simulation.heap_high_water);
    ("macro_wall_seconds", wall);
    ("obs_overhead_ratio", obs_ratio);
    ("reps_per_sec", reps_per_sec);
    ("reps_per_sec_serial", reps_per_sec_serial);
    ("parallel_speedup", speedup);
    ("parallel_speedup_one_round", round_speedup);
    ("parallel_jobs", float_of_int jobs);
    ("parallel_available_cores", float_of_int cores);
  ]

let run_micro () =
  E.Report.print_section "Bechamel micro-benchmarks";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analysed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) ->
            let r2 = Analyze.OLS.r_square ols_result in
            collected := (name, est, r2) :: !collected;
            Printf.printf "%-55s %12.1f ns/run%s\n%!" name est
              (match r2 with
              | Some r -> Printf.sprintf " (r²=%.4f)" r
              | None -> "")
          | _ -> Printf.printf "%-55s (no estimate)\n%!" name)
        analysed)
    micro_tests;
  !collected

(* ------------------------------------------------------------------ *)
(* Part 2: table and figure reproduction                               *)

let improvement ~better ~worse = 100.0 *. (1.0 -. (better /. worse))

let ratio_of points name =
  (List.assoc name points).E.Runner.mean_response_ratio.Statsched_stats.Confidence.mean

let print_table2 () =
  E.Report.print_section "Table 2: policy matrix (definitional)";
  print_string
    (E.Report.render
       ~header:[ "dispatching \\ allocation"; "weighted"; "optimized" ]
       ~rows:
         [
           [ E.Report.Text "random"; E.Report.Text "WRAN"; E.Report.Text "ORAN" ];
           [ E.Report.Text "round-robin"; E.Report.Text "WRR"; E.Report.Text "ORR" ];
         ])

let print_table3 () =
  E.Report.print_section "Table 3: base system configuration";
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun s -> Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
    Core.Speeds.table3;
  let rows =
    Hashtbl.fold (fun s c acc -> (s, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map (fun (s, c) -> [ E.Report.Float s; E.Report.Int c ])
  in
  print_string (E.Report.render ~header:[ "speed"; "number" ] ~rows);
  Printf.printf "aggregate speed: %g\n" (Core.Speeds.total Core.Speeds.table3)

let run_table1 r =
  E.Report.print_section "Table 1: workload split under Dynamic Least-Load (rho=0.7)";
  print_string (E.Table1.to_report r)

let run_fig2 r =
  E.Report.print_section "Figure 2: allocation deviation, round-robin vs random dispatch";
  print_string (E.Fig2.to_report r);
  Printf.printf "deviation ratio (random/round-robin means): %.1fx\n"
    (r.E.Fig2.random_summary.Statsched_stats.Summary.mean
    /. r.E.Fig2.round_robin_summary.Statsched_stats.Summary.mean)

let run_fig3 rows =
  E.Report.print_section "Figure 3: effect of speed skewness (2 fast + 16 slow, rho=0.7)";
  print_string (E.Fig3.to_report rows);
  print_newline ();
  print_string
    (E.Report.chart_of_sweep
       (E.Sweep.sweep_of_rows ~title:"Figure 3(b) as a chart" ~xlabel:"fast speed"
          ~metric:`Ratio rows));
  (* paper claims at 20:1 *)
  match
    List.find_opt (fun (x, _) -> Float.equal x 20.0) rows
    |> Option.map snd
  with
  | None -> ()
  | Some points ->
    Printf.printf
      "\npaper-claim check at 20:1 speed ratio (paper: ORR 42%% under WRR, ORAN 49%% under WRAN):\n";
    Printf.printf "  ORR vs WRR  mean-response-ratio reduction: %.0f%%\n"
      (improvement ~better:(ratio_of points "ORR") ~worse:(ratio_of points "WRR"));
    Printf.printf "  ORAN vs WRAN mean-response-ratio reduction: %.0f%%\n"
      (improvement ~better:(ratio_of points "ORAN") ~worse:(ratio_of points "WRAN"))

let run_fig4 rows =
  E.Report.print_section "Figure 4: effect of system size (half speed 10, half speed 1)";
  print_string (E.Fig4.to_report rows);
  Printf.printf
    "\npaper-claim check (paper: ORR 35-40%% under WRAN beyond 6 computers):\n";
  List.iter
    (fun (n, points) ->
      if n >= 8.0 then
        Printf.printf "  n=%2.0f  ORR vs WRAN reduction: %.0f%%\n" n
          (improvement ~better:(ratio_of points "ORR") ~worse:(ratio_of points "WRAN")))
    rows

let run_fig5 rows =
  E.Report.print_section "Figure 5: effect of system load (Table 3 configuration)";
  print_string (E.Fig5.to_report rows);
  print_newline ();
  print_string
    (E.Report.chart_of_sweep
       (E.Sweep.sweep_of_rows ~title:"Figure 5(a) as a chart" ~xlabel:"utilization"
          ~metric:`Ratio rows));
  match
    List.find_opt (fun (x, _) -> Float.equal x 0.9) rows
    |> Option.map snd
  with
  | None -> ()
  | Some points ->
    Printf.printf
      "\npaper-claim check at rho=0.9 (paper: ORR 24%% under WRR, 34%% under WRAN):\n";
    Printf.printf "  ORR vs WRR:  %.0f%%\n"
      (improvement ~better:(ratio_of points "ORR") ~worse:(ratio_of points "WRR"));
    Printf.printf "  ORR vs WRAN: %.0f%%\n"
      (improvement ~better:(ratio_of points "ORR") ~worse:(ratio_of points "WRAN"))

let run_fig6 ~under ~over =
  E.Report.print_section "Figure 6: sensitivity of ORR to load-estimation error";
  print_string (E.Fig6.to_report ~under ~over)

(* ------------------------------------------------------------------ *)
(* Ablation benches (DESIGN.md section 5)                              *)

let ablation_scale () =
  (* Ablations always run at a reduced scale; they compare variants of our
     own implementation, not paper claims. *)
  let s = E.Config.of_env () in
  if E.Config.equal_scale s E.Config.paper then E.Config.default_scale else E.Config.quick

let run_ablation_dispatch () =
  E.Report.print_section "Ablation: Algorithm 2 design choices (dispatch smoothness)";
  print_string (E.Ablations.dispatch_smoothness_report (E.Ablations.dispatch_smoothness ()))

let run_ablation_schedulers ~scale =
  E.Report.print_section
    "Ablation: end-to-end variants on Table 3 at rho=0.7 (mean response ratio)";
  print_string (E.Ablations.end_to_end_report (E.Ablations.end_to_end ~scale ()))

let run_ablation_discipline ~scale =
  E.Report.print_section "Ablation: service disciplines (PS model validation + contrast)";
  print_string (E.Ablations.disciplines_report (E.Ablations.disciplines ~scale ()));
  print_string
    ("PS and small-quantum RR agree (the paper's model is faithful); FCFS pays\n"
    ^ "for size-blind queueing; SRPT bounds what size knowledge could buy.\n")

let run_ablation_interval_length () =
  E.Report.print_section "Ablation: deviation metric vs interval length (Figure 2 stream)";
  print_string (E.Ablations.interval_lengths_report (E.Ablations.interval_lengths ()))

(* ------------------------------------------------------------------ *)
(* Extension experiments (beyond the paper)                            *)

let run_ext_burstiness ~scale =
  E.Report.print_section "Extension: arrival burstiness sweep (Table 3, rho=0.7)";
  let rows = E.Ext_burstiness.run ~scale () in
  print_string (E.Ext_burstiness.to_report rows)

let run_ext_sizes ~scale =
  E.Report.print_section
    "Extension: size-distribution sensitivity (PS insensitivity check)";
  let rows = E.Ext_sizes.run ~scale () in
  print_string (E.Ext_sizes.to_report rows)

let run_ext_partial_information ~scale =
  E.Report.print_section
    "Extension: partial-information dynamic baselines (Table 3, rho=0.7)";
  let speeds = Core.Speeds.table3 in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let schedulers =
    [
      ("ORR", Cluster.Scheduler.Static Core.Policy.orr);
      ("LeastLoad(d=2)", Cluster.Scheduler.two_choices ~d:2 ());
      ("LeastLoad(d=4)", Cluster.Scheduler.two_choices ~d:4 ());
      ("LeastLoad", Cluster.Scheduler.least_load_paper);
    ]
  in
  let points = E.Sweep.over_schedulers ~scale ~schedulers ~speeds ~workload () in
  print_string
    (E.Report.render
       ~header:[ "scheduler"; "mean response ratio"; "fairness" ]
       ~rows:
         (List.map
            (fun (name, p) ->
              [
                E.Report.Text name;
                E.Report.Interval p.E.Runner.mean_response_ratio;
                E.Report.Interval p.E.Runner.fairness;
              ])
            points));
  print_string
    "Note: JSQ(d) probes d random computers per decision; with heterogeneous\n\
     speeds it can probe only slow machines, so it needs d well above 2 to\n\
     approach full Least-Load — ORR gets most of the way with zero probes.\n"

let run_ext_adaptive ~scale =
  E.Report.print_section
    "Extension: self-tuning ORR (online load estimation, Table 3)";
  let speeds = Core.Speeds.table3 in
  let rows =
    List.map
      (fun rho ->
        let workload = Cluster.Workload.paper_default ~rho ~speeds in
        let schedulers =
          [
            ("ORR (oracle rho)", Cluster.Scheduler.Static Core.Policy.orr);
            ("AdaptiveORR", Cluster.Scheduler.adaptive_orr ());
            ("WRR", Cluster.Scheduler.Static Core.Policy.wrr);
          ]
        in
        (rho, E.Sweep.over_schedulers ~scale ~schedulers ~speeds ~workload ()))
      [ 0.3; 0.5; 0.7; 0.9 ]
  in
  print_string
    (E.Report.render_sweep
       (E.Sweep.sweep_of_rows ~title:"AdaptiveORR vs oracle ORR"
          ~xlabel:"utilization" ~metric:`Ratio rows))

(* ------------------------------------------------------------------ *)

let () =
  (* Usage: main.exe [mode] [--jobs N].  Mode defaults to "all"; --jobs
     sets the replication fan-out for the macro benchmark (default:
     STATSCHED_JOBS or the recommended domain count). *)
  let mode = ref "all" in
  let jobs = ref None in
  let argc = Array.length Sys.argv in
  let i = ref 1 in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--jobs" | "-j" when !i + 1 < argc ->
      incr i;
      jobs := Some Sys.argv.(!i)
    | arg when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      jobs := Some (String.sub arg 7 (String.length arg - 7))
    | arg -> mode := arg);
    incr i
  done;
  let mode = !mode in
  let jobs =
    match !jobs with
    | None -> Statsched_par.Par.default_jobs ()
    | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | Some _ | None ->
        Printf.eprintf "bench: --jobs expects a positive integer (got %S)\n" s;
        exit 2)
  in
  let scale = E.Config.of_env () in
  Printf.printf "statsched bench harness — scale: %s (horizon %g s, %d replications)\n"
    (E.Config.scale_name scale) scale.E.Config.horizon scale.E.Config.reps;
  let do_micro = mode = "all" || mode = "micro" in
  let do_macro = mode = "all" || mode = "micro" || mode = "macro" in
  let do_figures = mode = "all" || mode = "figures" in
  let do_ablations = mode = "all" || mode = "ablations" in
  let micro = if do_micro then run_micro () else [] in
  let macros = if do_macro then run_macro ~jobs () else [] in
  if do_micro || do_macro then write_bench_json ~micro ~macros;
  if do_figures then begin
    print_table2 ();
    print_table3 ();
    let inputs = E.Paper_claims.gather ~scale () in
    run_table1 inputs.E.Paper_claims.table1;
    run_fig2 inputs.E.Paper_claims.fig2;
    run_fig3 inputs.E.Paper_claims.fig3;
    run_fig4 inputs.E.Paper_claims.fig4;
    run_fig5 inputs.E.Paper_claims.fig5;
    run_fig6 ~under:inputs.E.Paper_claims.fig6_under ~over:inputs.E.Paper_claims.fig6_over;
    E.Report.print_section "Paper-claims scoreboard";
    print_string (E.Paper_claims.to_report (E.Paper_claims.evaluate inputs))
  end;
  if do_ablations then begin
    let scale = ablation_scale () in
    run_ablation_dispatch ();
    run_ablation_schedulers ~scale;
    run_ablation_discipline ~scale;
    run_ablation_interval_length ()
  end;
  if mode = "all" || mode = "extensions" then begin
    let scale = ablation_scale () in
    run_ext_burstiness ~scale;
    run_ext_sizes ~scale;
    run_ext_partial_information ~scale;
    run_ext_adaptive ~scale;
    E.Report.print_section
      "Extension: load-information staleness (when does ORR beat polling?)";
    print_string (E.Ext_staleness.to_report (E.Ext_staleness.run ~scale ()));
    E.Report.print_section "Extension: diurnal (non-stationary) load";
    print_string (E.Ext_diurnal.to_report (E.Ext_diurnal.run ~scale ()));
    E.Report.print_section "Extension: size-aware SITA-E vs size-blind policies";
    print_string (E.Ext_sita.to_report (E.Ext_sita.run ~scale ()));
    E.Report.print_section "Extension: convergence with run length";
    print_string
      (E.Ext_convergence.to_report (E.Ext_convergence.run ~reps:scale.E.Config.reps ()))
  end
