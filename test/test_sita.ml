open Test_util
module Core = Statsched_core
module Sita = Core.Sita
module Bp = Statsched_dist.Bounded_pareto
module Cluster = Statsched_cluster

let prm = Bp.paper_default

let partial_mean_total () =
  (* The whole support integrates to the mean. *)
  check_close ~rel:1e-9 "full band = mean"
    (Bp.raw_moment prm 1)
    (Bp.partial_mean prm ~lo:prm.Bp.k ~hi:prm.Bp.p)

let partial_mean_additive () =
  let mid = 500.0 in
  let left = Bp.partial_mean prm ~lo:prm.Bp.k ~hi:mid in
  let right = Bp.partial_mean prm ~lo:mid ~hi:prm.Bp.p in
  check_close ~rel:1e-9 "bands add up" (Bp.raw_moment prm 1) (left +. right)

let partial_mean_alpha_not_one () =
  (* Consistency of the two analytic branches: a non-unit alpha band sum
     also equals its raw moment. *)
  let prm2 = { Bp.k = 1.0; p = 1000.0; alpha = 1.7 } in
  let mid = 30.0 in
  check_close ~rel:1e-9 "alpha=1.7 additive"
    (Bp.raw_moment prm2 1)
    (Bp.partial_mean prm2 ~lo:1.0 ~hi:mid +. Bp.partial_mean prm2 ~lo:mid ~hi:1000.0)

let partial_mean_clamps () =
  check_float ~eps:1e-12 "outside support is zero" 0.0
    (Bp.partial_mean prm ~lo:1.0 ~hi:5.0);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Bounded_pareto.partial_mean: lo > hi")
    (fun () -> ignore (Bp.partial_mean prm ~lo:10.0 ~hi:5.0))

let cdf_basics () =
  check_float "below support" 0.0 (Bp.cdf prm 1.0);
  check_float "above support" 1.0 (Bp.cdf prm 1e9);
  let x = 100.0 in
  check_close ~rel:1e-9 "cdf/quantile roundtrip" x (Bp.quantile prm (Bp.cdf prm x))

let sita_equal_load_two () =
  (* Two equal computers: the cutoff splits the work in half. *)
  let t = Sita.build_bounded_pareto prm ~speeds:[| 1.0; 1.0 |] ~small_to:`Fast in
  let shares = Sita.expected_shares t prm in
  check_array ~eps:1e-6 "half/half" [| 0.5; 0.5 |] shares

let sita_speed_proportional_shares () =
  let speeds = Core.Speeds.table1 in
  let t = Sita.build_bounded_pareto prm ~speeds ~small_to:`Fast in
  let shares = Sita.expected_shares t prm in
  let total = Core.Speeds.total speeds in
  Array.iteri
    (fun i speed ->
      check_close ~rel:1e-5
        (Printf.sprintf "share of computer %d" i)
        (speed /. total)
        shares.(i))
    speeds

let sita_band_ordering () =
  let speeds = [| 1.0; 10.0 |] in
  (* small_to:`Fast: the fastest computer (index 1) serves band 0 *)
  let t = Sita.build_bounded_pareto prm ~speeds ~small_to:`Fast in
  Alcotest.(check int) "small jobs to fast" 1 (Sita.select t ~size:(prm.Bp.k +. 0.01));
  Alcotest.(check int) "large jobs to slow" 0 (Sita.select t ~size:(prm.Bp.p -. 1.0));
  let t2 = Sita.build_bounded_pareto prm ~speeds ~small_to:`Slow in
  Alcotest.(check int) "small jobs to slow" 0 (Sita.select t2 ~size:(prm.Bp.k +. 0.01))

let sita_cutoffs_monotone () =
  let t = Sita.build_bounded_pareto prm ~speeds:Core.Speeds.table3 ~small_to:`Fast in
  let c = Sita.cutoffs t in
  Alcotest.(check int) "n-1 cutoffs" 14 (Array.length c);
  for i = 1 to Array.length c - 1 do
    Alcotest.(check bool) "ascending" true (c.(i) >= c.(i - 1))
  done;
  Array.iter
    (fun x ->
      Alcotest.(check bool) "inside support" true (prm.Bp.k <= x && x <= prm.Bp.p))
    c

let sita_select_clamps () =
  let t = Sita.build_bounded_pareto prm ~speeds:[| 1.0; 1.0; 1.0 |] ~small_to:`Slow in
  let lo = Sita.select t ~size:0.0001 in
  let hi = Sita.select t ~size:1e12 in
  Alcotest.(check int) "tiny size -> first band's computer" (Sita.assignment t).(0) lo;
  Alcotest.(check int) "huge size -> last band's computer" (Sita.assignment t).(2) hi

let sita_simulation_balances_load () =
  (* End to end: under SITA-E every computer's utilisation approaches the
     offered rho (the equal-load property realised). *)
  let speeds = [| 1.0; 2.0; 4.0 |] in
  let workload = Cluster.Workload.paper_default ~rho:0.6 ~speeds in
  let cfg =
    Cluster.Simulation.default_config ~horizon:400_000.0 ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.sita_paper ()) ()
  in
  let r = Cluster.Simulation.run cfg in
  Array.iteri
    (fun i pc ->
      check_close ~rel:0.25
        (Printf.sprintf "computer %d utilisation near 0.6" i)
        0.6 pc.Cluster.Simulation.utilization)
    r.Cluster.Simulation.per_computer

let sita_beats_wran_under_fcfs () =
  (* Crovella's setting: FCFS hosts and heavy-tailed sizes.  Size-aware
     banding must crush size-blind weighted random there. *)
  let speeds = [| 2.0; 2.0; 2.0; 2.0 |] in
  let workload = Cluster.Workload.paper_default ~rho:0.6 ~speeds in
  let run scheduler =
    let cfg =
      Cluster.Simulation.default_config ~discipline:Cluster.Simulation.Fcfs
        ~horizon:400_000.0 ~speeds ~workload ~scheduler ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_ratio
  in
  let sita = run (Cluster.Scheduler.sita_paper ()) in
  let wran = run (Cluster.Scheduler.static Core.Policy.wran) in
  Alcotest.(check bool)
    (Printf.sprintf "SITA %.2f beats WRAN %.2f under FCFS" sita wran)
    true (sita < wran)

let sita_scheduler_name () =
  Alcotest.(check string) "name" "SITA-E(small->fast)"
    (Cluster.Scheduler.name (Cluster.Scheduler.sita_paper ()));
  Alcotest.(check string) "slow variant" "SITA-E(small->slow)"
    (Cluster.Scheduler.name (Cluster.Scheduler.sita_paper ~small_to:`Slow ()))

let prop_sita_shares_match_speeds =
  qcheck ~count:50 "SITA-E equal-load property on random systems"
    speeds_gen
    (fun speeds ->
      let t = Sita.build_bounded_pareto prm ~speeds ~small_to:`Fast in
      let shares = Sita.expected_shares t prm in
      let total = Core.Speeds.total speeds in
      Array.for_all2
        (fun share s -> abs_float (share -. (s /. total)) < 1e-4)
        shares speeds)

let suite =
  [
    test "partial mean: total equals mean" partial_mean_total;
    test "partial mean: additivity (alpha=1)" partial_mean_additive;
    test "partial mean: additivity (alpha=1.7)" partial_mean_alpha_not_one;
    test "partial mean: clamping and validation" partial_mean_clamps;
    test "cdf: basics and quantile roundtrip" cdf_basics;
    test "sita: equal-load cutoff for two equal computers" sita_equal_load_two;
    test "sita: shares proportional to speeds" sita_speed_proportional_shares;
    test "sita: band ordering by policy" sita_band_ordering;
    test "sita: cutoffs monotone inside support" sita_cutoffs_monotone;
    test "sita: selection clamps to extreme bands" sita_select_clamps;
    slow_test "sita: simulated utilisations equalised" sita_simulation_balances_load;
    slow_test "sita: beats WRAN under FCFS hosts" sita_beats_wran_under_fcfs;
    test "sita: scheduler naming" sita_scheduler_name;
    prop_sita_shares_match_speeds;
  ]

let ext_sita_structure () =
  let tiny = { Statsched_experiments.Config.horizon = 15_000.0; warmup = 3_750.0; reps = 2 } in
  let table = Statsched_experiments.Studies.ext_sita in
  let rows = Statsched_experiments.Sweep.run_table ~scale:tiny table in
  Alcotest.(check int) "PS and FCFS rows" 2 (List.length rows);
  List.iter
    (fun (_, points) -> Alcotest.(check int) "five schedulers" 5 (List.length points))
    rows;
  let disciplines =
    List.map
      (function
        | [ Statsched_experiments.Report.Text d ], _ -> d
        | _ -> Alcotest.fail "one text label per row")
      rows
  in
  Alcotest.(check (list string)) "disciplines" [ "PS"; "FCFS" ] disciplines;
  Alcotest.(check bool) "report renders" true
    (String.length (Statsched_experiments.Sweep.table_to_report table rows) > 0)

let ext_suite = [ slow_test "ext sita: structure" ext_sita_structure ]

let suite = suite @ ext_suite
