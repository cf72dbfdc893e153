open Test_util
module Core = Statsched_core
module Alloc_table = Core.Alloc_table
module Allocation = Core.Allocation
module Speeds = Core.Speeds
module E = Statsched_experiments
module Cluster = Statsched_cluster

(* ------------------------------------------------------------------ *)
(* Alloc_table                                                         *)

let table_exact_on_grid () =
  let t = Alloc_table.build ~grid:9 Speeds.table1 in
  let grid = Alloc_table.grid_points t in
  Array.iter
    (fun rho ->
      check_array ~eps:1e-12
        (Printf.sprintf "exact at grid rho=%.2f" rho)
        (Allocation.optimized ~rho Speeds.table1)
        (Alloc_table.lookup t ~rho))
    grid

let table_interpolation_feasible () =
  let t = Alloc_table.build ~grid:19 Speeds.table3 in
  List.iter
    (fun rho ->
      let alloc = Alloc_table.lookup t ~rho in
      let sum = Array.fold_left ( +. ) 0.0 alloc in
      check_float ~eps:1e-9 (Printf.sprintf "sums to 1 at %.3f" rho) 1.0 sum;
      Array.iter
        (fun a -> Alcotest.(check bool) "non-negative" true (a >= 0.0))
        alloc)
    [ 0.123; 0.456; 0.789; 0.031; 0.97 ]

let table_interpolation_accurate () =
  let t = Alloc_table.build ~grid:99 Speeds.table3 in
  (* Mid-range utilisations: tight accuracy. *)
  let err_mid = Alloc_table.max_interpolation_error ~lo:0.2 ~hi:0.95 t ~samples:500 in
  Alcotest.(check bool)
    (Printf.sprintf "mid-range error %.2e below 0.01" err_mid)
    true (err_mid < 0.01);
  (* Full range: the low-rho cutoff kinks dominate but stay bounded. *)
  let err_full = Alloc_table.max_interpolation_error t ~samples:500 in
  Alcotest.(check bool)
    (Printf.sprintf "full-range error %.2e below 0.05" err_full)
    true (err_full < 0.05)

let table_finer_grid_more_accurate () =
  let coarse = Alloc_table.build ~grid:9 Speeds.table3 in
  let fine = Alloc_table.build ~grid:199 Speeds.table3 in
  let e_coarse = Alloc_table.max_interpolation_error coarse ~samples:300 in
  let e_fine = Alloc_table.max_interpolation_error fine ~samples:300 in
  Alcotest.(check bool)
    (Printf.sprintf "finer grid wins (%.2e < %.2e)" e_fine e_coarse)
    true (e_fine < e_coarse)

let table_clamps_outside_grid () =
  let t = Alloc_table.build ~grid:9 [| 1.0; 2.0 |] in
  let grid = Alloc_table.grid_points t in
  let lowest = Alloc_table.lookup t ~rho:0.001 in
  check_array ~eps:1e-12 "clamps low"
    (Allocation.optimized ~rho:grid.(0) [| 1.0; 2.0 |])
    lowest

let table_validation () =
  Alcotest.check_raises "grid < 2" (Invalid_argument "Alloc_table.build: grid < 2")
    (fun () -> ignore (Alloc_table.build ~grid:1 [| 1.0 |]));
  let t = Alloc_table.build [| 1.0 |] in
  Alcotest.check_raises "rho out of range"
    (Invalid_argument "Alloc_table.lookup: rho outside (0,1)") (fun () ->
      ignore (Alloc_table.lookup t ~rho:1.0))

let table_report_rows () =
  let t = Alloc_table.build ~grid:9 [| 1.0; 4.0 |] in
  let rows = Alloc_table.to_report_rows t ~at:[ 0.3; 0.6 ] in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (_, alloc) -> Alcotest.(check int) "two computers" 2 (Array.length alloc))
    rows

let prop_table_close_to_exact =
  qcheck ~count:50 "table lookup within 0.05 of exact optimizer"
    QCheck2.Gen.(pair speeds_gen rho_gen)
    (fun (speeds, rho) ->
      let t = Alloc_table.build ~grid:99 speeds in
      let approx = Alloc_table.lookup t ~rho in
      let exact = Allocation.optimized ~rho speeds in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 0.05) approx exact)

(* ------------------------------------------------------------------ *)
(* CSV export                                                          *)

let csv_basic () =
  let csv =
    E.Report.render_csv
      ~header:[ "name"; "value" ]
      ~rows:[ [ E.Report.Text "plain"; E.Report.Float 1.5 ];
              [ E.Report.Text "with,comma"; E.Report.Int 2 ] ]
  in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  Alcotest.(check string) "header" "name,value" (List.hd lines);
  Alcotest.(check string) "quoted comma" "\"with,comma\",2" (List.nth lines 2)

let csv_quote_escaping () =
  let csv =
    E.Report.render_csv ~header:[ "x" ]
      ~rows:[ [ E.Report.Text "say \"hi\"" ] ]
  in
  Alcotest.(check bool) "doubled quotes" true
    (let needle = "\"say \"\"hi\"\"\"" in
     let h = String.length csv and n = String.length needle in
     let rec scan i = i + n <= h && (String.sub csv i n = needle || scan (i + 1)) in
     scan 0)

let csv_ragged_rejected () =
  Alcotest.check_raises "ragged" (Invalid_argument "Report.render_csv: ragged row")
    (fun () ->
      ignore (E.Report.render_csv ~header:[ "a"; "b" ] ~rows:[ [ E.Report.Int 1 ] ]))

let sweep_csv_halfwidths () =
  let interval mean half =
    {
      Statsched_stats.Confidence.mean;
      half_width = half;
      confidence = 0.95;
      replications = 5;
    }
  in
  let sweep =
    {
      E.Report.title = "t";
      xlabel = "x";
      columns = [ "A" ];
      rows = [ (1.0, [ E.Report.Interval (interval 2.5 0.25) ]) ];
    }
  in
  let csv = E.Report.sweep_to_csv sweep in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header with halfwidth column" "x,A,A_halfwidth"
    (List.hd lines);
  Alcotest.(check string) "data row" "1,2.5,0.25" (List.nth lines 1)

(* ------------------------------------------------------------------ *)
(* Deeper invariants                                                   *)

let prop_theorem2_condition_is_prefix =
  (* The footnote to Theorem 3: the set of sorted indices satisfying the
     "too slow" condition is contiguous from the left — this is what makes
     the binary search valid.  Verify directly on random systems. *)
  qcheck ~count:300 "theorem 2 condition indices form a prefix"
    QCheck2.Gen.(pair speeds_gen rho_gen)
    (fun (speeds, rho) ->
      let sorted, _ = Core.Speeds.sort_with_permutation speeds in
      let n = Array.length sorted in
      let lambda = rho *. Core.Speeds.total sorted in
      let suffix_s = Array.make (n + 1) 0.0 in
      let suffix_sqrt = Array.make (n + 1) 0.0 in
      for i = n - 1 downto 0 do
        suffix_s.(i) <- suffix_s.(i + 1) +. sorted.(i);
        suffix_sqrt.(i) <- suffix_sqrt.(i + 1) +. sqrt sorted.(i)
      done;
      let holds i = sqrt sorted.(i) < (suffix_s.(i) -. lambda) /. suffix_sqrt.(i) in
      let pattern = Array.init n holds in
      (* after the first false, everything must be false *)
      let ok = ref true in
      let seen_false = ref false in
      Array.iter
        (fun b ->
          if not b then seen_false := true else if !seen_false then ok := false)
        pattern;
      !ok)

let simulation_conserves_jobs () =
  (* Every arrival is either completed or still in some server when the
     horizon is reached. *)
  let speeds = [| 1.0; 3.0 |] in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let completions = ref 0 in
  let cfg =
    Cluster.Simulation.default_config ~horizon:50_000.0 ~warmup:0.0 ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let r = Cluster.Simulation.run ~on_completion:(fun _ -> incr completions) cfg in
  let dispatched_total =
    Array.fold_left
      (fun acc pc -> acc + pc.Cluster.Simulation.dispatched)
      0 r.Cluster.Simulation.per_computer
  in
  Alcotest.(check int) "warmup 0: dispatched equals arrivals"
    r.Cluster.Simulation.total_arrivals dispatched_total;
  Alcotest.(check bool) "completions <= arrivals" true
    (!completions <= r.Cluster.Simulation.total_arrivals);
  (* with no warmup, measured jobs = completions *)
  Alcotest.(check int) "collector counted every completion" !completions
    r.Cluster.Simulation.metrics.Core.Metrics.jobs

let prop_simulation_deterministic =
  qcheck ~count:10 "simulation reproducible for any seed"
    QCheck2.Gen.int64
    (fun seed ->
      let speeds = [| 1.0; 2.0 |] in
      let workload =
        Cluster.Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds
      in
      let run () =
        let cfg =
          Cluster.Simulation.default_config ~horizon:5_000.0 ~seed ~speeds ~workload
            ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
        in
        (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      in
      run () = run ())

let suite =
  [
    test "alloc table: exact on grid points" table_exact_on_grid;
    test "alloc table: interpolation stays feasible" table_interpolation_feasible;
    test "alloc table: interpolation accurate" table_interpolation_accurate;
    slow_test "alloc table: finer grid more accurate" table_finer_grid_more_accurate;
    test "alloc table: clamps outside grid" table_clamps_outside_grid;
    test "alloc table: validation" table_validation;
    test "alloc table: report rows" table_report_rows;
    prop_table_close_to_exact;
    test "csv: basic rendering and comma quoting" csv_basic;
    test "csv: quote escaping" csv_quote_escaping;
    test "csv: ragged rows rejected" csv_ragged_rejected;
    test "csv: sweep halfwidth columns" sweep_csv_halfwidths;
    prop_theorem2_condition_is_prefix;
    test "simulation: job conservation" simulation_conserves_jobs;
    prop_simulation_deterministic;
  ]

(* ------------------------------------------------------------------ *)
(* Paper claims + sequential runner                                    *)

let claims_structure () =
  let tiny = { E.Config.horizon = 20_000.0; warmup = 5_000.0; reps = 2 } in
  let inputs = E.Paper_claims.gather ~scale:tiny () in
  let outcomes = E.Paper_claims.evaluate inputs in
  Alcotest.(check int) "18 claims" 18 (List.length outcomes);
  (* unique ids *)
  let ids = List.map (fun o -> o.E.Paper_claims.id) outcomes in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let report = E.Paper_claims.to_report outcomes in
  Alcotest.(check bool) "report counts" true
    (let needle = "/ 18 paper claims" in
     let h = String.length report and n = String.length needle in
     let rec scan i = i + n <= h && (String.sub report i n = needle || scan (i + 1)) in
     scan 0);
  (* even at this tiny scale the robust structural claims must hold *)
  let find id = List.find (fun o -> o.E.Paper_claims.id = id) outcomes in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " passes even at tiny scale") true
        (find id).E.Paper_claims.pass)
    [ "T1/slow-starved"; "F2/rr-smoother"; "F3/optimized-wins-at-skew" ]

let suite =
  suite @ [ slow_test "paper claims: structure and robust subset" claims_structure ]

(* ------------------------------------------------------------------ *)
(* Markdown report                                                     *)

let md_report_structure () =
  let tiny = { E.Config.horizon = 20_000.0; warmup = 5_000.0; reps = 2 } in
  let inputs = E.Paper_claims.gather ~scale:tiny () in
  let doc = E.Md_report.generate ~scale:tiny ~inputs () in
  let contains needle =
    let h = String.length doc and n = String.length needle in
    let rec scan i = i + n <= h && (String.sub doc i n = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [
      "# statsched reproduction report";
      "## Table 1";
      "## Figure 2";
      "## Figure 3";
      "## Figure 4";
      "## Figure 5";
      "## Figure 6";
      "## Paper-claims scoreboard";
      "/ 18 paper claims reproduced";
      "| fast speed | WRAN |";
    ];
  (* round-trips through write *)
  let path = Filename.temp_file "statsched" ".md" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      E.Md_report.write ~path doc;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check int) "written in full" (String.length doc) len)

let md_suite = [ slow_test "markdown report: structure" md_report_structure ]

let suite = suite @ md_suite

(* ------------------------------------------------------------------ *)
(* Parallel replication                                                *)

let parallel_equals_sequential () =
  let speeds = [| 1.0; 4.0 |] in
  let workload = Cluster.Workload.paper_default ~rho:0.6 ~speeds in
  let scale = { E.Config.horizon = 20_000.0; warmup = 5_000.0; reps = 4 } in
  let spec =
    E.Runner.make_spec ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.orr) ()
  in
  let seq = E.Runner.replicate ~scale spec in
  let par = E.Runner.replicate ~jobs:3 ~scale spec in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      check_float "bitwise identical metrics"
        a.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio
        b.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio;
      Alcotest.(check int) "same arrivals" a.Cluster.Simulation.total_arrivals
        b.Cluster.Simulation.total_arrivals)
    seq par;
  (* the aggregated points agree too *)
  let p_seq = E.Runner.point_of_results seq in
  let p_par = E.Runner.measure ~jobs:2 ~scale spec in
  check_float "aggregated mean equal"
    p_seq.E.Runner.mean_response_ratio.Statsched_stats.Confidence.mean
    p_par.E.Runner.mean_response_ratio.Statsched_stats.Confidence.mean

let parallel_validation () =
  let speeds = [| 1.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.5 ~mean_size:1.0 ~speeds in
  let spec =
    E.Runner.make_spec ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.static Core.Policy.wrr) ()
  in
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Par.map: jobs < 1")
    (fun () ->
      ignore
        (E.Runner.replicate ~jobs:0
           ~scale:{ E.Config.horizon = 1_000.0; warmup = 0.0; reps = 2 }
           spec))

let parallel_suite =
  [
    slow_test "parallel replication: identical to sequential" parallel_equals_sequential;
    test "parallel replication: validation" parallel_validation;
  ]

let suite = suite @ parallel_suite
