open Test_util
module Core = Statsched_core
module Optimality = Core.Optimality
module Allocation = Core.Allocation
module Speeds = Core.Speeds
module Cluster = Statsched_cluster
module E = Statsched_experiments
module Rng = Statsched_prng.Rng

(* ------------------------------------------------------------------ *)
(* KKT verification                                                    *)

let gradient_known_values () =
  (* Two computers, speeds (1, 3), rho = 0.5 => lambda = 2.
     At alpha = (0.25, 0.75): dF/da_0 = 2*1/(1-0.5)^2 = 8,
     dF/da_1 = 2*3/(3-1.5)^2 = 8/3. *)
  let g =
    Optimality.gradient ~rho:0.5 ~speeds:[| 1.0; 3.0 |] ~alloc:[| 0.25; 0.75 |]
  in
  check_float ~eps:1e-12 "grad 0" 8.0 g.(0);
  check_float ~eps:1e-12 "grad 1" (8.0 /. 3.0) g.(1)

let gradient_saturated () =
  let g = Optimality.gradient ~rho:0.8 ~speeds:[| 1.0; 1.0 |] ~alloc:[| 1.0; 0.0 |] in
  check_float "saturated gradient" infinity g.(0)

let kkt_accepts_algorithm1 () =
  List.iter
    (fun rho ->
      List.iter
        (fun speeds ->
          let alloc = Allocation.optimized ~rho speeds in
          let v = Optimality.check ~rho ~speeds alloc in
          Alcotest.(check bool)
            (Printf.sprintf
               "optimal at rho=%.2f n=%d (stat %.2e dual %.2e feas %.2e)" rho
               (Array.length speeds) v.Optimality.stationarity_residual
               v.Optimality.dual_residual v.Optimality.feasibility_residual)
            true v.Optimality.optimal)
        [ Speeds.table1; Speeds.table3;
          Speeds.two_class ~n_fast:2 ~fast:20.0 ~n_slow:16 ~slow:1.0; [| 5.0 |] ])
    [ 0.05; 0.3; 0.7; 0.95 ]

let kkt_rejects_weighted () =
  (* Weighted allocation is NOT stationary on a heterogeneous system. *)
  let speeds = Speeds.table3 in
  let v = Optimality.check ~rho:0.5 ~speeds (Allocation.weighted speeds) in
  Alcotest.(check bool) "weighted not optimal" false v.Optimality.optimal;
  Alcotest.(check bool) "stationarity violated" true
    (v.Optimality.stationarity_residual > 1e-3)

let kkt_rejects_infeasible () =
  let speeds = [| 1.0; 1.0 |] in
  let v = Optimality.check ~rho:0.5 ~speeds [| 0.7; 0.7 |] in
  Alcotest.(check bool) "sum != 1 rejected" false v.Optimality.optimal;
  Alcotest.(check bool) "feasibility residual positive" true
    (v.Optimality.feasibility_residual > 0.1)

let kkt_rejects_naive_clamp_when_cutoff_active () =
  let speeds = Speeds.table3 in
  let rho = 0.1 in
  Alcotest.(check bool) "cutoff active" true (Allocation.optimized_cutoff ~rho speeds > 0);
  let naive = Allocation.optimized_naive_clamp ~rho speeds in
  let v = Optimality.check ~rho ~speeds naive in
  Alcotest.(check bool) "naive clamp fails KKT" false v.Optimality.optimal

let brute_force_two_agrees () =
  List.iter
    (fun (s0, s1, rho) ->
      let speeds = [| s0; s1 |] in
      let reference = Optimality.brute_force_two ~grid:200_000 ~rho speeds in
      let alg1 = Allocation.optimized ~rho speeds in
      check_float ~eps:1e-4
        (Printf.sprintf "alpha_0 at (%g,%g,rho=%g)" s0 s1 rho)
        reference.(0) alg1.(0))
    [ (1.0, 10.0, 0.7); (1.0, 10.0, 0.2); (2.0, 3.0, 0.5); (1.0, 1.0, 0.6);
      (1.0, 100.0, 0.9) ]

let brute_force_validation () =
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Optimality.brute_force_two: need exactly two computers")
    (fun () -> ignore (Optimality.brute_force_two ~rho:0.5 [| 1.0 |]))

let prop_kkt_accepts_algorithm1 =
  qcheck ~count:200 "Algorithm 1 satisfies KKT for random systems"
    QCheck2.Gen.(pair speeds_gen rho_gen)
    (fun (speeds, rho) ->
      let alloc = Core.Allocation.optimized ~rho speeds in
      (Optimality.check ~tol:1e-5 ~rho ~speeds alloc).Optimality.optimal)

let prop_parked_gradient_dominates =
  qcheck ~count:200 "parked computers have gradient >= multiplier"
    QCheck2.Gen.(pair speeds_gen (map (fun x -> 0.02 +. (0.3 *. x)) (float_bound_inclusive 1.0)))
    (fun (speeds, rho) ->
      let alloc = Core.Allocation.optimized ~rho speeds in
      let v = Optimality.check ~rho ~speeds alloc in
      v.Optimality.dual_residual <= 1e-5)

(* ------------------------------------------------------------------ *)
(* Power-of-d-choices                                                  *)

let sampled_degenerates_to_full () =
  let t = Core.Least_load.create Speeds.table1 in
  let g = rng () in
  (* d >= n: identical to full least-load selection. *)
  Alcotest.(check int) "full probe = select" (Core.Least_load.select t)
    (Core.Least_load.select_sampled ~rng:g t ~d:100)

let sampled_picks_best_of_probes () =
  let t = Core.Least_load.create [| 1.0; 1.0; 1.0 |] in
  (* Load computer 0 heavily; with d = 3 (all probed), never choose it. *)
  for _ = 1 to 5 do
    Core.Least_load.job_sent t 0
  done;
  let g = rng () in
  for _ = 1 to 200 do
    let i = Core.Least_load.select_sampled ~rng:g t ~d:3 in
    Alcotest.(check bool) "avoids the loaded machine" true (i = 1 || i = 2)
  done

let sampled_d1_is_uniform_random () =
  let t = Core.Least_load.create [| 1.0; 1.0; 1.0; 1.0 |] in
  let g = rng () in
  let c = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Core.Least_load.select_sampled ~rng:g t ~d:1 in
    c.(i) <- c.(i) + 1
  done;
  Array.iter
    (fun count ->
      Alcotest.(check bool) "d=1 uniform" true (abs (count - (n / 4)) < n / 40))
    c

let sampled_validation () =
  let t = Core.Least_load.create [| 1.0 |] in
  Alcotest.check_raises "d < 1" (Invalid_argument "Least_load.select_sampled: d < 1")
    (fun () -> ignore (Core.Least_load.select_sampled ~rng:(rng ()) t ~d:0));
  Alcotest.check_raises "weighted d < 1"
    (Invalid_argument "Least_load.select_weighted: d < 1") (fun () ->
      ignore (Core.Least_load.select_weighted ~rng:(rng ()) t ~d:0))

(* Regression (PR 10): uniform probing on a fast-minority cluster almost
   never sees the fast computers, so JSQ(d) piled work on the slow
   majority (the ROADMAP-flagged ≈53 response ratio at n=10²).  The
   speed-weighted sampler must probe — and hence select — the fast
   computers far more often.  Formulated against the uniform sampler
   this assertion fails, which is exactly the pre-fix behaviour. *)
let weighted_probes_see_fast_minority () =
  let n = 100 in
  (* 10% at speed 10, 90% at speed 1 — the scale-sweep configuration. *)
  let speeds = Array.init n (fun i -> if i < n / 10 then 10.0 else 1.0) in
  let count select =
    let t = Core.Least_load.create speeds in
    let g = rng () in
    let fast = ref 0 in
    let decisions = 2_000 in
    for _ = 1 to decisions do
      let i = select g t in
      if speeds.(i) > 1.0 then incr fast
    done;
    float_of_int !fast /. float_of_int decisions
  in
  let uniform = count (fun g t -> Core.Least_load.select_sampled ~rng:g t ~d:2) in
  let weighted = count (fun g t -> Core.Least_load.select_weighted ~rng:g t ~d:2) in
  (* All queues stay empty, so a probe set containing a fast computer
     always selects it (normalised load 0.1 vs 1.0).  Uniform d=2 finds
     one with P ≈ 0.19; weighted with P ≈ 0.78. *)
  Alcotest.(check bool)
    (Printf.sprintf "weighted fast-hit rate %.2f > 2x uniform %.2f" weighted
       uniform)
    true
    (weighted > 2.0 *. uniform);
  Alcotest.(check bool)
    (Printf.sprintf "weighted fast-hit rate %.2f > 0.6" weighted)
    true (weighted > 0.6)

let weighted_distinct_probes_and_ties () =
  (* All three computers tied at normalised load 1.0: speeds (1, 2, 4)
     with queues (0, 1, 3).  Whatever pair of distinct probes the
     sampler draws, the faster member must win the tie — computer 0
     (the slowest) can never be selected, because any pair containing
     it also contains a faster computer at equal load.  The uniform
     sampler keeps first-seen tie-breaking, so this pins the weighted
     path's faster-on-tie contract (it fails if run against
     select_sampled). *)
  let t = Core.Least_load.create [| 1.0; 2.0; 4.0 |] in
  Core.Least_load.job_sent t 1;
  for _ = 1 to 3 do
    Core.Least_load.job_sent t 2
  done;
  let g = rng () in
  let seen = Array.make 3 0 in
  for _ = 1 to 300 do
    let i = Core.Least_load.select_weighted ~rng:g t ~d:2 in
    seen.(i) <- seen.(i) + 1
  done;
  Alcotest.(check int) "slowest tied computer never wins" 0 seen.(0);
  Alcotest.(check bool) "both faster computers selected" true
    (seen.(1) > 0 && seen.(2) > 0)

let weighted_degenerates_to_full () =
  let t = Core.Least_load.create Speeds.table1 in
  let g = rng () in
  Alcotest.(check int) "full weighted probe = select" (Core.Least_load.select t)
    (Core.Least_load.select_weighted ~rng:g t ~d:100)

let weighted_respects_mask () =
  let t = Core.Least_load.create [| 1.0; 1.0; 1.0; 10.0 |] in
  (* The fast computer is down: weighted probing must never pick it,
     even though it carries ~77% of the alias table's mass (the
     rejection loop and the Fisher-Yates fallback both filter on
     availability). *)
  Core.Least_load.set_available t 3 false;
  let g = rng () in
  for _ = 1 to 200 do
    let i = Core.Least_load.select_weighted ~rng:g t ~d:2 in
    Alcotest.(check bool) "down computer never probed" true (i < 3)
  done

let walker_alias_frequencies () =
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let a = Core.Walker_alias.create weights in
  Alcotest.(check int) "length" 4 (Core.Walker_alias.length a);
  let g = rng () in
  let n = 100_000 in
  let c = Array.make 4 0 in
  for _ = 1 to n do
    let i = Core.Walker_alias.draw a g in
    c.(i) <- c.(i) + 1
  done;
  Array.iteri
    (fun i count ->
      let expect = weights.(i) /. 10.0 *. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "category %d: %d draws vs %.0f expected" i count expect)
        true
        (Float.abs (float_of_int count -. expect) < 0.05 *. float_of_int n))
    c;
  Alcotest.check_raises "empty" (Invalid_argument "Walker_alias.create: empty weight vector")
    (fun () -> ignore (Core.Walker_alias.create [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Walker_alias.create: negative or NaN weight") (fun () ->
      ignore (Core.Walker_alias.create [| 1.0; -1.0; 3.0 |]))

let decision_path_zero_alloc () =
  (* The JSQ(d)/JIQ/least-load decision paths must not allocate: at
     n = 10^4 over 10^7 jobs even one word per decision is 80 MB of
     minor-heap churn.  One warm pass first (index pools and idle
     stacks size themselves), then a measured pass under
     [Gc.minor_words]. *)
  let n = 10_000 in
  let speeds = E.Ext_scale.speeds_for n in
  let decisions = 10_000 in
  let measure name cycle =
    cycle ();
    let before = Gc.minor_words () in
    cycle ();
    let delta = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%s allocated %.0f minor words over %d decisions" name
         delta decisions)
      true (delta <= 64.0)
  in
  let g = rng () in
  (* Pre-allocated option: building [Some g] at the call would charge
     the measurement two words per decision that the simulation's own
     call sites don't pay (they hoist it the same way). *)
  let rng_opt = Some g in
  let ll = Core.Least_load.create speeds in
  measure "least-load tree select" (fun () ->
      for _ = 1 to decisions do
        let s = Core.Least_load.select ?rng:rng_opt ll in
        Core.Least_load.job_sent ll s;
        Core.Least_load.departure_recorded ll s
      done);
  measure "jsq(d=2) sampled probe" (fun () ->
      for _ = 1 to decisions do
        let s = Core.Least_load.select_sampled ~rng:g ll ~d:2 in
        Core.Least_load.job_sent ll s;
        Core.Least_load.departure_recorded ll s
      done);
  measure "jsq(d=2) weighted probe" (fun () ->
      for _ = 1 to decisions do
        let s = Core.Least_load.select_weighted ~rng:g ll ~d:2 in
        Core.Least_load.job_sent ll s;
        Core.Least_load.departure_recorded ll s
      done);
  let jq = Core.Least_load.create speeds in
  measure "jiq idle-stack select" (fun () ->
      for _ = 1 to decisions do
        let s = Core.Least_load.select_idle ~rng:g jq in
        Core.Least_load.job_sent jq s;
        Core.Least_load.departure_recorded jq s
      done)

let two_choices_between_static_and_full () =
  (* On a homogeneous cluster JSQ(2) should clearly beat random static
     dispatch and be beaten by (or match) full least-load. *)
  let speeds = Array.make 8 1.0 in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.8 ~mean_size:1.0 ~speeds in
  let run scheduler =
    let cfg =
      Cluster.Simulation.default_config ~horizon:60_000.0 ~speeds ~workload ~scheduler ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_time
  in
  let t_static = run (Cluster.Scheduler.static Core.Policy.wran) in
  let t_d2 = run (Cluster.Scheduler.two_choices ~d:2 ()) in
  let t_full = run Cluster.Scheduler.least_load_paper in
  Alcotest.(check bool)
    (Printf.sprintf "JSQ(2) %.3f < static random %.3f" t_d2 t_static)
    true (t_d2 < t_static);
  Alcotest.(check bool)
    (Printf.sprintf "full least-load %.3f <= JSQ(2) %.3f * 1.1" t_full t_d2)
    true (t_full <= t_d2 *. 1.1)

let two_choices_scheduler_name () =
  Alcotest.(check string) "name" "LeastLoad(d=2)"
    (Cluster.Scheduler.name (Cluster.Scheduler.two_choices ()));
  Alcotest.check_raises "d < 1" (Invalid_argument "Scheduler.two_choices: d < 1")
    (fun () -> ignore (Cluster.Scheduler.two_choices ~d:0 ()))

(* ------------------------------------------------------------------ *)
(* Extension experiment plumbing                                       *)

let tiny = { E.Config.horizon = 20_000.0; warmup = 5_000.0; reps = 2 }

let with_size_workload () =
  let speeds = Speeds.table3 in
  let size = Statsched_dist.Exponential.of_mean 76.8 in
  let w = Cluster.Workload.with_size ~rho:0.7 ~size speeds in
  check_close ~rel:1e-9 "utilisation hit" 0.7 (Cluster.Workload.utilization w ~speeds);
  check_close ~rel:1e-6 "default arrival cv 3" 3.0
    (Statsched_dist.Distribution.cv w.Cluster.Workload.interarrival);
  let w1 = Cluster.Workload.with_size ~rho:0.7 ~arrival_cv:1.0 ~size speeds in
  check_close ~rel:1e-9 "poisson option" 1.0
    (Statsched_dist.Distribution.cv w1.Cluster.Workload.interarrival)

(* The text of a table row's first label cell. *)
let row_label = function E.Report.Text s :: _ -> s | _ -> ""

let ext_sizes_same_mean () =
  List.iter
    (fun (labels, (c : E.Sweep.cell)) ->
      check_close ~rel:0.002
        (Printf.sprintf "%s has mean 76.8" (row_label labels))
        76.8
        (Statsched_dist.Distribution.mean c.workload.Cluster.Workload.size))
    (E.Studies.ext_sizes.rows ~scale:tiny)

let ext_sizes_structure () =
  let table =
    {
      E.Studies.ext_sizes with
      rows =
        (fun ~scale ->
          List.filter
            (fun (labels, _) ->
              List.mem (row_label labels) [ "deterministic"; "exponential" ])
            (E.Studies.ext_sizes.rows ~scale));
    }
  in
  let rows = E.Sweep.run_table ~scale:tiny table in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (_, points) ->
      Alcotest.(check int) "two schedulers" 2 (List.length points))
    rows;
  Alcotest.(check bool) "report renders" true
    (String.length (E.Sweep.table_to_report table rows) > 0)

(* Ext-burstiness with WRR as its only column. *)
let burstiness_wrr xs =
  {
    E.Studies.ext_burstiness with
    xs;
    cell =
      (fun ~scale x ->
        {
          (E.Studies.ext_burstiness.cell ~scale x) with
          schedulers = [ ("WRR", Cluster.Scheduler.static Core.Policy.wrr) ];
        });
  }

let ext_burstiness_structure () =
  let study = burstiness_wrr [ 1.0; 3.0 ] in
  let rows = E.Sweep.run ~scale:tiny study in
  Alcotest.(check int) "two cv rows" 2 (List.length rows);
  Alcotest.(check int) "two sweeps" 2 (List.length (E.Sweep.sweeps study rows))

let ext_burstiness_monotone () =
  (* More bursty arrivals hurt: WRR's response ratio at CV 5 must exceed
     its value at CV 0.5. *)
  let scale = { E.Config.horizon = 60_000.0; warmup = 15_000.0; reps = 2 } in
  let rows = E.Sweep.run ~scale (burstiness_wrr [ 0.5; 5.0 ]) in
  let ratio cv =
    let points = List.assoc cv rows in
    (List.assoc "WRR" points).E.Runner.mean_response_ratio
      .Statsched_stats.Confidence.mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "cv=5 (%.3f) worse than cv=0.5 (%.3f)" (ratio 5.0) (ratio 0.5))
    true
    (ratio 5.0 > ratio 0.5)

let suite =
  [
    test "kkt: gradient closed form" gradient_known_values;
    test "kkt: saturated gradient infinite" gradient_saturated;
    test "kkt: Algorithm 1 output passes (fixtures)" kkt_accepts_algorithm1;
    test "kkt: weighted allocation fails stationarity" kkt_rejects_weighted;
    test "kkt: infeasible allocation rejected" kkt_rejects_infeasible;
    test "kkt: naive clamp fails when cutoff active" kkt_rejects_naive_clamp_when_cutoff_active;
    slow_test "brute force two computers agrees with Algorithm 1" brute_force_two_agrees;
    test "brute force arity validation" brute_force_validation;
    prop_kkt_accepts_algorithm1;
    prop_parked_gradient_dominates;
    test "jsq(d): d >= n degenerates to full least-load" sampled_degenerates_to_full;
    test "jsq(d): picks best of probes" sampled_picks_best_of_probes;
    test "jsq(d): d=1 is uniform random" sampled_d1_is_uniform_random;
    test "jsq(d): validation" sampled_validation;
    test "jsq(d): weighted probes see the fast minority"
      weighted_probes_see_fast_minority;
    test "jsq(d): weighted tie-break prefers faster"
      weighted_distinct_probes_and_ties;
    test "jsq(d): weighted d >= n degenerates to full least-load"
      weighted_degenerates_to_full;
    test "jsq(d): weighted probing respects the availability mask"
      weighted_respects_mask;
    test "walker alias: frequencies and validation" walker_alias_frequencies;
    test "dispatchers: decision paths allocation-free at n=10^4"
      decision_path_zero_alloc;
    slow_test "jsq(2): between static random and full least-load"
      two_choices_between_static_and_full;
    test "jsq(d): scheduler naming and validation" two_choices_scheduler_name;
    test "workload: with_size parameterisation" with_size_workload;
    test "ext sizes: all distributions share the mean" ext_sizes_same_mean;
    slow_test "ext sizes: structure" ext_sizes_structure;
    slow_test "ext burstiness: structure" ext_burstiness_structure;
    slow_test "ext burstiness: burstiness hurts" ext_burstiness_monotone;
  ]

let ext_convergence_structure () =
  (* Two short horizons at rho = 0.7 instead of the study's 0.9. *)
  let study =
    {
      E.Studies.ext_convergence with
      xs = [ 10_000.0; 20_000.0 ];
      cell =
        (fun ~scale x ->
          let c = E.Studies.ext_convergence.cell ~scale x in
          {
            c with
            workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds:c.speeds;
          });
    }
  in
  let rows = E.Sweep.run ~scale:{ E.Config.quick with reps = 2 } study in
  Alcotest.(check int) "two horizons" 2 (List.length rows);
  List.iter
    (fun (_, points) ->
      Alcotest.(check int) "three schedulers" 3 (List.length points))
    rows;
  let c = study.cell ~scale:E.Config.quick 20_000.0 in
  check_float "horizon from the grid" 20_000.0 c.scale.horizon;
  check_float "warm-up = horizon / 4" 5_000.0 c.scale.warmup;
  Alcotest.(check int) "reps from the command line" E.Config.quick.reps c.scale.reps;
  Alcotest.(check bool) "report renders" true
    (String.length (E.Sweep.to_report study rows) > 0)

let convergence_suite =
  [ slow_test "ext convergence: structure" ext_convergence_structure ]

let suite = suite @ convergence_suite

let ablations_library () =
  (* Dispatch smoothness: structure + the headline ordering. *)
  let rows = E.Fig2.dispatch_smoothness () in
  Alcotest.(check int) "seven dispatchers" 7 (List.length rows);
  let dev name =
    (List.find (fun r -> r.E.Fig2.dispatcher = name) rows).E.Fig2.mean_deviation
  in
  Alcotest.(check bool) "algorithm 2 smoother than random" true
    (dev "Algorithm 2 (paper)" < dev "random" /. 3.0);
  Alcotest.(check bool) "guard helps" true
    (dev "Algorithm 2 (paper)" <= dev "no first-assignment guard");
  Alcotest.(check bool) "report renders" true
    (String.length (E.Fig2.dispatch_smoothness_report rows) > 0);
  (* Interval-length sensitivity: round-robin always at or below random. *)
  let ivs = E.Fig2.interval_lengths () in
  Alcotest.(check int) "five lengths" 5 (List.length ivs);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "rr <= random at %g s" r.E.Fig2.interval_length)
        true
        (r.E.Fig2.round_robin_deviation <= r.E.Fig2.random_deviation))
    ivs

let ablations_disciplines () =
  let rows =
    E.Sweep.run_table
      ~scale:{ E.Config.horizon = 30_000.0; warmup = 7_500.0; reps = 2 }
      E.Studies.ablation_disciplines
  in
  Alcotest.(check int) "five disciplines" 5 (List.length rows);
  let mean name =
    match List.find (fun (labels, _) -> row_label labels = name) rows with
    | _, [ (_, p) ] -> p.E.Runner.mean_response_time.Statsched_stats.Confidence.mean
    | _ -> Alcotest.fail (name ^ ": expected one scheduler")
  in
  (* PS and fine-quantum RR agree closely even at this tiny scale *)
  check_close ~rel:0.05 "PS ~ RR(0.01)" (mean "PS (fluid)") (mean "RR quantum 0.01");
  (* SRPT at least matches PS on mean response time *)
  Alcotest.(check bool) "SRPT <= PS" true
    (mean "SRPT (size-aware)" <= mean "PS (fluid)" *. 1.02)

let ablation_suite =
  [
    slow_test "ablations: dispatch + intervals library" ablations_library;
    slow_test "ablations: disciplines library" ablations_disciplines;
  ]

let suite = suite @ ablation_suite
