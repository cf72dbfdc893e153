open Test_util
module E = Statsched_experiments
module Runner = E.Runner
module Config = E.Config
module Core = Statsched_core
module Cluster = Statsched_cluster

(* A tiny scale so the experiment plumbing tests stay fast; statistical
   assertions here are about structure and gross ordering only. *)
let tiny = { Config.horizon = 30_000.0; warmup = 7_500.0; reps = 2 }

let config_scales_ordered () =
  Alcotest.(check bool) "quick < default" true
    (Config.quick.Config.horizon < Config.default_scale.Config.horizon);
  Alcotest.(check bool) "default < paper" true
    (Config.default_scale.Config.horizon < Config.paper.Config.horizon);
  Alcotest.(check int) "paper reps" 10 Config.paper.Config.reps;
  check_float "paper horizon" 4.0e6 Config.paper.Config.horizon;
  check_float "paper warmup" 1.0e6 Config.paper.Config.warmup

let config_names () =
  Alcotest.(check string) "quick" "quick" (Config.scale_name Config.quick);
  Alcotest.(check string) "paper" "paper" (Config.scale_name Config.paper)

let runner_point_aggregates () =
  let speeds = [| 1.0; 2.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let spec =
    Runner.make_spec ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.wrr) ()
  in
  let results = Runner.replicate ~scale:tiny spec in
  Alcotest.(check int) "reps run" 2 (List.length results);
  let point = Runner.point_of_results results in
  Alcotest.(check string) "label" "WRR" point.Runner.label;
  Alcotest.(check int) "interval replication count" 2
    point.Runner.mean_response_ratio.Statsched_stats.Confidence.replications;
  Alcotest.(check bool) "jobs measured" true (point.Runner.jobs_per_rep > 100.0);
  check_close ~rel:0.05 "fractions average to weighted" (2.0 /. 3.0)
    point.Runner.dispatch_fractions.(1)

let runner_empty_rejected () =
  Alcotest.check_raises "no results" (Invalid_argument "Runner.point_of_results: no results")
    (fun () -> ignore (Runner.point_of_results []))

let schedulers_roster () =
  Alcotest.(check int) "four static" 4 (List.length E.Schedulers.static_four);
  Alcotest.(check int) "five with least load" 5 (List.length E.Schedulers.with_least_load);
  Alcotest.(check bool) "ablations non-empty" true
    (List.length E.Schedulers.dispatch_ablations >= 3)

let table1_shape () =
  let r = E.Table1.run ~scale:tiny () in
  Alcotest.(check int) "seven computers" 7 (Array.length r.E.Table1.measured_fractions);
  let total = Array.fold_left ( +. ) 0.0 r.E.Table1.measured_fractions in
  check_close ~rel:1e-6 "fractions sum to 1" 1.0 total;
  (* the slowest computer receives well below its proportional share *)
  Alcotest.(check bool) "slow starved" true
    (r.E.Table1.measured_fractions.(0) < 0.5 *. r.E.Table1.weighted_fractions.(0));
  (* the fastest receives at least its proportional share *)
  Alcotest.(check bool) "fast overfed" true
    (r.E.Table1.measured_fractions.(6) > r.E.Table1.weighted_fractions.(6));
  (* report renders without error *)
  Alcotest.(check bool) "report non-empty" true (String.length (E.Table1.to_report r) > 0)

let fig2_round_robin_smoother () =
  let r = E.Fig2.run () in
  Alcotest.(check int) "30 intervals" 30 (Array.length r.E.Fig2.round_robin);
  Alcotest.(check int) "30 intervals" 30 (Array.length r.E.Fig2.random);
  let rr_mean = r.E.Fig2.round_robin_summary.Statsched_stats.Summary.mean in
  let rand_mean = r.E.Fig2.random_summary.Statsched_stats.Summary.mean in
  Alcotest.(check bool)
    (Printf.sprintf "rr %.5f << random %.5f" rr_mean rand_mean)
    true
    (rr_mean < rand_mean /. 3.0);
  Alcotest.(check bool) "report non-empty" true (String.length (E.Fig2.to_report r) > 0)

(* The two passes are independent (each builds its own RNGs), so
   running them on two domains at once must not change a bit of
   either series. *)
let fig2_jobs_bit_identical () =
  let bits a = Array.map Int64.bits_of_float a in
  let seq = E.Fig2.run ~jobs:1 () in
  let par = E.Fig2.run ~jobs:2 () in
  Alcotest.(check (array int64)) "round-robin series" (bits seq.E.Fig2.round_robin)
    (bits par.E.Fig2.round_robin);
  Alcotest.(check (array int64)) "random series" (bits seq.E.Fig2.random)
    (bits par.E.Fig2.random)

let fig2_fractions_paper () =
  check_float ~eps:1e-12 "paper fractions sum to 1" 1.0
    (Array.fold_left ( +. ) 0.0 E.Fig2.fractions);
  Alcotest.(check int) "eight computers" 8 (Array.length E.Fig2.fractions)

(* [study] with each cell's columns cut to the named schedulers. *)
let only names (study : E.Sweep.study) =
  {
    study with
    cell =
      (fun ~scale x ->
        let c = study.cell ~scale x in
        {
          c with
          schedulers = List.filter (fun (n, _) -> List.mem n names) c.schedulers;
        });
  }

let static_four = only [ "WRAN"; "ORAN"; "WRR"; "ORR" ]

let fig3_structure_and_ordering () =
  let study = static_four { E.Studies.fig3 with xs = [ 1.0; 16.0 ] } in
  let rows = E.Sweep.run ~scale:tiny study in
  Alcotest.(check int) "two x values" 2 (List.length rows);
  List.iter
    (fun (_, points) -> Alcotest.(check int) "four schedulers" 4 (List.length points))
    rows;
  (* At high skew the optimized policies must beat the weighted ones. *)
  let high = List.assoc 16.0 rows in
  let ratio name =
    (List.assoc name high).Runner.mean_response_ratio.Statsched_stats.Confidence.mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "ORR %.3f < WRR %.3f at 16:1" (ratio "ORR") (ratio "WRR"))
    true
    (ratio "ORR" < ratio "WRR");
  Alcotest.(check bool)
    (Printf.sprintf "ORAN %.3f < WRAN %.3f at 16:1" (ratio "ORAN") (ratio "WRAN"))
    true
    (ratio "ORAN" < ratio "WRAN");
  (* three metric panels *)
  Alcotest.(check int) "three sweeps" 3 (List.length (E.Sweep.sweeps study rows))

let fig3_homogeneous_allocations_coincide () =
  (* In the homogeneous case (fast = slow = 1) optimized and weighted
     produce identical fractions, so ORR = WRR exactly under common random
     numbers. *)
  let rows =
    E.Sweep.run ~scale:tiny (static_four { E.Studies.fig3 with xs = [ 1.0 ] })
  in
  let points = List.assoc 1.0 rows in
  let mean name =
    (List.assoc name points).Runner.mean_response_ratio.Statsched_stats.Confidence.mean
  in
  check_float ~eps:1e-9 "ORR = WRR when homogeneous" (mean "WRR") (mean "ORR");
  check_float ~eps:1e-9 "ORAN = WRAN when homogeneous" (mean "WRAN") (mean "ORAN")

let fig4_structure () =
  let study = static_four { E.Studies.fig4 with xs = [ 2.0; 6.0 ] } in
  let rows = E.Sweep.run ~scale:tiny study in
  Alcotest.(check int) "two sizes" 2 (List.length rows);
  List.iter
    (fun (n, points) ->
      Alcotest.(check int)
        (Printf.sprintf "%g computers" n)
        (int_of_float n)
        (Array.length (E.Studies.fig4.cell ~scale:tiny n).speeds);
      Alcotest.(check int) "four schedulers" 4 (List.length points))
    rows;
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "size %g rejected" n)
        (Invalid_argument "Studies.fig4: computer counts must be even and >= 2")
        (fun () -> ignore (E.Sweep.run ~scale:tiny { E.Studies.fig4 with xs = [ n ] })))
    [ 3.0; 0.0; 2.5 ];
  Alcotest.(check int) "two panels" 2 (List.length (E.Sweep.sweeps study rows))

let fig5_low_load_favours_optimized () =
  let rows =
    E.Sweep.run ~scale:tiny (static_four { E.Studies.fig5 with xs = [ 0.3 ] })
  in
  let points = List.assoc 0.3 rows in
  let ratio name =
    (List.assoc name points).Runner.mean_response_ratio.Statsched_stats.Confidence.mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "ORR %.3f < WRAN %.3f at low load" (ratio "ORR") (ratio "WRAN"))
    true
    (ratio "ORR" < ratio "WRAN")

let fig6_overestimation_mild () =
  let rows =
    E.Sweep.run ~scale:tiny
      (only [ "ORR"; "ORR(+10%)"; "WRR" ] { E.Studies.fig6_over with xs = [ 0.6 ] })
  in
  let points = List.assoc 0.6 rows in
  Alcotest.(check (list string)) "ORR, ORR(+10%), WRR" [ "ORR"; "ORR(+10%)"; "WRR" ]
    (List.map fst points);
  let ratio name =
    (List.assoc name points).Runner.mean_response_ratio.Statsched_stats.Confidence.mean
  in
  (* Overestimation at moderate load must stay close to exact ORR:
     within 15% at this tiny scale. *)
  check_close ~rel:0.15 "ORR(+10%) near ORR" (ratio "ORR") (ratio "ORR(+10%)")

let report_rendering () =
  let header = [ "a"; "bb" ] in
  let rows = [ [ E.Report.Int 1; E.Report.Float 2.5 ] ] in
  let s = E.Report.render ~header ~rows in
  Alcotest.(check bool) "contains values" true
    (String.length s > 0
    && String.index_opt s '1' <> None
    && String.index_opt s '2' <> None);
  Alcotest.check_raises "ragged row" (Invalid_argument "Report.render: ragged row")
    (fun () -> ignore (E.Report.render ~header ~rows:[ [ E.Report.Int 1 ] ]))

let report_cells () =
  Alcotest.(check string) "percent" "12.34%"
    (String.trim
       (List.nth (String.split_on_char '\n' (E.Report.render ~header:[ "x" ]
                                               ~rows:[ [ E.Report.Percent 0.1234 ] ])) 2))

(* Regression: a one-replication point has no fairness half-width (nan
   by design); any rendering of it must omit the ± term instead of
   printing "± nan". *)
let single_run_fairness_renders () =
  let speeds = [| 1.0; 2.0 |] in
  let workload =
    Cluster.Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds
  in
  let spec =
    Runner.make_spec ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let p =
    Runner.measure ~jobs:1
      ~scale:{ Config.horizon = 20_000.0; warmup = 5_000.0; reps = 1 }
      spec
  in
  let fairness = p.Runner.fairness in
  Alcotest.(check bool) "half-width is nan by design" true
    (Float.is_nan fairness.Statsched_stats.Confidence.half_width);
  Alcotest.(check bool) "mean is finite" true
    (Float.is_finite fairness.Statsched_stats.Confidence.mean);
  let rendered =
    Format.asprintf "%a" Statsched_stats.Confidence.pp fairness
  in
  let contains_nan =
    let n = String.length rendered in
    let rec scan i =
      i + 3 <= n && (String.sub rendered i 3 = "nan" || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "rendering %S has no nan" rendered)
    false contains_nan;
  (* The interval cell renderer goes through the same pretty-printer. *)
  check_float ~eps:0.0 "availability defaults to 1 without faults" 1.0
    p.Runner.availability

(* Common random numbers: a table with one scheduler per row measures,
   bit for bit, what one over_schedulers call over all of them does. *)
let table_one_per_row_matches_over_schedulers () =
  let speeds = [| 1.0; 2.0; 4.0 |] and rho = 0.6 in
  let rows = E.Sweep.run_table ~scale:tiny (E.Studies.compare ~speeds ~rho) in
  let shared =
    E.Sweep.over_schedulers ~scale:tiny ~schedulers:E.Schedulers.with_least_load
      ~speeds ~workload:(Cluster.Workload.paper_default ~rho ~speeds) ()
  in
  let bits (p : Runner.point) =
    let interval (i : Statsched_stats.Confidence.interval) =
      [ i.mean; i.half_width ]
    in
    List.map Int64.bits_of_float
      (interval p.mean_response_time
      @ interval p.mean_response_ratio
      @ interval p.fairness
      @ [ p.median_ratio; p.p99_ratio; p.jobs_per_rep; p.availability ]
      @ Array.to_list p.dispatch_fractions)
  in
  Alcotest.(check (list string)) "one row per scheduler, in order"
    (List.map fst shared)
    (List.concat_map (fun (_, points) -> List.map fst points) rows);
  List.iter2
    (fun (_, points) (name, p) ->
      match points with
      | [ (_, q) ] -> Alcotest.(check (list int64)) name (bits p) (bits q)
      | _ -> Alcotest.fail (name ^ ": expected one scheduler per row"))
    rows shared

(* Every line of a table holding an interval cell (its "±" is two bytes)
   is as wide on screen as the header line. *)
let report_pads_by_display_width () =
  let code_points s =
    String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s
  in
  let interval mean half_width =
    E.Report.Interval
      {
        Statsched_stats.Confidence.mean;
        half_width;
        confidence = 0.95;
        replications = 2;
      }
  in
  let s =
    E.Report.render ~header:[ "scheduler"; "ratio"; "fairness" ]
      ~rows:
        [
          [ E.Report.Text "ORR"; interval 0.81 0.28; interval 0.786 0.15 ];
          [ E.Report.Text "LeastLoad"; interval 0.5159 0.19; E.Report.Float 2.5 ];
        ]
  in
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' s) with
  | [] -> Alcotest.fail "empty table"
  | header :: lines ->
    List.iter
      (fun line ->
        Alcotest.(check int) (Printf.sprintf "width of %S" line) (code_points header)
          (code_points line))
      lines

let suite =
  [
    test "config: scales ordered" config_scales_ordered;
    test "config: names" config_names;
    slow_test "runner: replication and aggregation" runner_point_aggregates;
    test "runner: empty rejected" runner_empty_rejected;
    slow_test "runner: single-run fairness renders without nan"
      single_run_fairness_renders;
    test "schedulers: roster" schedulers_roster;
    slow_test "table 1: least-load starves slow computers" table1_shape;
    slow_test "figure 2: round-robin smoother than random" fig2_round_robin_smoother;
    slow_test "figure 2: jobs=2 bit-identical to jobs=1" fig2_jobs_bit_identical;
    test "figure 2: paper fractions" fig2_fractions_paper;
    slow_test "figure 3: structure and optimized-wins ordering" fig3_structure_and_ordering;
    slow_test "figure 3: homogeneous case collapses pairs" fig3_homogeneous_allocations_coincide;
    slow_test "figure 4: structure and validation" fig4_structure;
    slow_test "figure 5: optimized wins at low load" fig5_low_load_favours_optimized;
    slow_test "figure 6: overestimation is mild" fig6_overestimation_mild;
    test "report: table rendering" report_rendering;
    test "report: cell formats" report_cells;
    slow_test "sweep: one-per-row table matches one over_schedulers call"
      table_one_per_row_matches_over_schedulers;
    test "report: pads by display width" report_pads_by_display_width;
  ]
