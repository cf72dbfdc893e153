open Test_util
module Core = Statsched_core
module Cluster = Statsched_cluster
module E = Statsched_experiments

let adaptive_name () =
  Alcotest.(check string) "name" "AdaptiveORR(T=10000)"
    (Cluster.Scheduler.name (Cluster.Scheduler.adaptive_orr ()));
  Alcotest.(check string) "custom period" "AdaptiveORR(T=500)"
    (Cluster.Scheduler.name (Cluster.Scheduler.adaptive_orr ~period:500.0 ()))

let adaptive_validation () =
  Alcotest.check_raises "period <= 0"
    (Invalid_argument "Scheduler.adaptive_orr: period <= 0") (fun () ->
      ignore (Cluster.Scheduler.adaptive_orr ~period:0.0 ()))

(* The adaptive scheduler must converge: its final intended fractions
   should approach the oracle's optimized allocation once enough jobs
   have been observed. *)
let adaptive_converges_to_oracle_allocation () =
  let speeds = [| 1.0; 1.0; 8.0 |] in
  let rho = 0.6 in
  let workload = Cluster.Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let cfg =
    Cluster.Simulation.default_config ~horizon:100_000.0 ~speeds ~workload
      ~scheduler:(Cluster.Scheduler.adaptive_orr ~period:1_000.0 ())
      ()
  in
  let r = Cluster.Simulation.run cfg in
  let oracle = Core.Allocation.optimized ~rho speeds in
  match r.Cluster.Simulation.intended_fractions with
  | None -> Alcotest.fail "adaptive must expose final fractions"
  | Some final ->
    Array.iteri
      (fun i o ->
        (* within a few percent: the estimator sees ~60k jobs and the
           safety factor (+5%) shifts the allocation slightly *)
        check_float ~eps:0.05 (Printf.sprintf "alpha[%d] near oracle" i) o final.(i))
      oracle

let adaptive_performance_near_oracle () =
  let speeds = [| 1.0; 1.0; 8.0 |] in
  let rho = 0.5 in
  let workload = Cluster.Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
  let run scheduler =
    let cfg =
      Cluster.Simulation.default_config ~horizon:150_000.0 ~speeds ~workload ~scheduler
        ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_ratio
  in
  let oracle = run (Cluster.Scheduler.static Core.Policy.orr) in
  let adaptive = run (Cluster.Scheduler.adaptive_orr ~period:2_000.0 ()) in
  let weighted = run (Cluster.Scheduler.static Core.Policy.wrr) in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.3f within 15%% of oracle %.3f" adaptive oracle)
    true
    (adaptive < oracle *. 1.15);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.3f clearly beats WRR %.3f" adaptive weighted)
    true
    (adaptive < weighted)

let adaptive_survives_bad_initial_guess () =
  (* The controller starts from rho-hat = 0.5.  At loads well below and
     well above that guess the run must still end close to ORR with the
     true load: the estimator corrects the guess after the first
     periods. *)
  let speeds = [| 1.0; 10.0 |] in
  List.iter
    (fun rho ->
      let workload = Cluster.Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
      let run scheduler =
        let cfg =
          Cluster.Simulation.default_config ~horizon:100_000.0 ~speeds ~workload
            ~scheduler ()
        in
        (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
          .Core.Metrics.mean_response_ratio
      in
      let adaptive = run (Cluster.Scheduler.adaptive_orr ~period:1_000.0 ()) in
      let oracle = run (Cluster.Scheduler.static Core.Policy.orr) in
      check_close ~rel:0.15
        (Printf.sprintf "initial guess washes out at rho %.2f" rho)
        oracle adaptive)
    [ 0.1; 0.8 ]

let suite =
  [
    test "adaptive: naming" adaptive_name;
    test "adaptive: parameter validation" adaptive_validation;
    slow_test "adaptive: allocation converges to oracle"
      adaptive_converges_to_oracle_allocation;
    slow_test "adaptive: performance near oracle, beats WRR"
      adaptive_performance_near_oracle;
    slow_test "adaptive: initial guess washes out" adaptive_survives_bad_initial_guess;
  ]

(* ------------------------------------------------------------------ *)
(* Stale least-load                                                    *)

let stale_name_and_validation () =
  Alcotest.(check string) "name" "StaleLeastLoad(T=100)"
    (Cluster.Scheduler.name (Cluster.Scheduler.stale_least_load ~poll_period:100.0 ()));
  Alcotest.(check string) "blind name" "StaleLeastLoad(T=100,blind)"
    (Cluster.Scheduler.name
       (Cluster.Scheduler.stale_least_load ~count_in_flight:false ~poll_period:100.0 ()));
  Alcotest.check_raises "period <= 0"
    (Invalid_argument "Scheduler.stale_least_load: poll_period <= 0") (fun () ->
      ignore (Cluster.Scheduler.stale_least_load ~poll_period:0.0 ()))

let stale_fresh_polls_close_to_least_load () =
  (* With a very short poll period the stale scheduler approximates full
     least-load. *)
  let speeds = [| 1.0; 10.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.6 ~mean_size:1.0 ~speeds in
  let run scheduler =
    let cfg =
      Cluster.Simulation.default_config ~horizon:80_000.0 ~speeds ~workload ~scheduler ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_ratio
  in
  let fresh = run (Cluster.Scheduler.stale_least_load ~poll_period:0.1 ()) in
  let full = run Cluster.Scheduler.least_load_instant in
  check_close ~rel:0.15 "fresh polls ~ instant least-load" full fresh

let stale_polls_degrade_with_period () =
  (* Longer poll periods must not help; very stale info should be clearly
     worse than fresh. *)
  let speeds = [| 1.0; 1.0; 10.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.7 ~mean_size:1.0 ~speeds in
  let run period =
    let cfg =
      Cluster.Simulation.default_config ~horizon:80_000.0 ~speeds ~workload
        ~scheduler:(Cluster.Scheduler.stale_least_load ~poll_period:period ())
        ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_ratio
  in
  let fresh = run 1.0 in
  let stale = run 5_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "stale %.3f worse than fresh %.3f" stale fresh)
    true (stale > fresh)

let stale_blind_herds () =
  (* Without in-flight counting, every arrival between polls herds onto
     one computer: the blind variant must be worse than the counting one
     at a long poll period. *)
  let speeds = [| 1.0; 1.0; 1.0; 1.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.7 ~mean_size:1.0 ~speeds in
  let run count_in_flight =
    let cfg =
      Cluster.Simulation.default_config ~horizon:60_000.0 ~speeds ~workload
        ~scheduler:
          (Cluster.Scheduler.stale_least_load ~count_in_flight ~poll_period:500.0 ())
        ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_time
  in
  let counting = run true in
  let blind = run false in
  Alcotest.(check bool)
    (Printf.sprintf "blind %.2f worse than counting %.2f" blind counting)
    true (blind > counting)

let stale_suite =
  [
    test "stale: naming and validation" stale_name_and_validation;
    slow_test "stale: fresh polls approximate least-load"
      stale_fresh_polls_close_to_least_load;
    slow_test "stale: staleness degrades performance" stale_polls_degrade_with_period;
    slow_test "stale: blind variant herds" stale_blind_herds;
  ]

let suite = suite @ stale_suite

(* ------------------------------------------------------------------ *)
(* Diurnal workload                                                    *)

let diurnal_validation () =
  let speeds = [| 1.0; 2.0 |] in
  Alcotest.check_raises "amplitude >= 1"
    (Invalid_argument "Workload.diurnal: amplitude outside [0, 1)") (fun () ->
      ignore (Cluster.Workload.diurnal ~rho:0.5 ~amplitude:1.0 ~day_length:100.0 ~speeds));
  Alcotest.check_raises "saturating peak"
    (Invalid_argument "Workload.diurnal: peak load saturates the system") (fun () ->
      ignore (Cluster.Workload.diurnal ~rho:0.8 ~amplitude:0.3 ~day_length:100.0 ~speeds));
  Alcotest.check_raises "bad day length"
    (Invalid_argument "Workload.diurnal: day_length <= 0") (fun () ->
      ignore (Cluster.Workload.diurnal ~rho:0.5 ~amplitude:0.2 ~day_length:0.0 ~speeds))

let diurnal_rate_modulation () =
  let speeds = [| 1.0; 2.0 |] in
  let w = Cluster.Workload.diurnal ~rho:0.5 ~amplitude:0.4 ~day_length:100.0 ~speeds in
  let base = Cluster.Workload.arrival_rate w in
  (* peak at a quarter day, trough at three quarters *)
  check_close ~rel:1e-9 "peak rate" (base *. 1.4) (Cluster.Workload.modulated_rate w 25.0);
  check_close ~rel:1e-9 "trough rate" (base *. 0.6) (Cluster.Workload.modulated_rate w 75.0);
  check_close ~rel:1e-9 "mean rate at day boundary" base
    (Cluster.Workload.modulated_rate w 100.0);
  (* stationary workloads report the base rate at any time *)
  let s = Cluster.Workload.paper_default ~rho:0.5 ~speeds in
  check_close ~rel:1e-9 "stationary" (Cluster.Workload.arrival_rate s)
    (Cluster.Workload.modulated_rate s 12345.0)

let diurnal_load_realised () =
  (* The realised mean utilisation over whole days must match the target
     mean despite the swings. *)
  let speeds = [| 2.0; 2.0 |] in
  let rho = 0.6 in
  let day = 5_000.0 in
  let w =
    let base = Cluster.Workload.poisson_exponential ~rho ~mean_size:1.0 ~speeds in
    {
      base with
      Cluster.Workload.modulation =
        Some (fun t -> 1.0 +. (0.3 *. sin (2.0 *. Float.pi *. t /. day)));
    }
  in
  let cfg =
    Cluster.Simulation.default_config ~horizon:(day *. 20.0) ~warmup:0.0 ~speeds
      ~workload:w ~scheduler:(Cluster.Scheduler.static Core.Policy.wrr) ()
  in
  let r = Cluster.Simulation.run cfg in
  let avg_util =
    Array.fold_left (fun acc pc -> acc +. pc.Cluster.Simulation.utilization) 0.0
      r.Cluster.Simulation.per_computer
    /. 2.0
  in
  check_close ~rel:0.08 "mean utilisation preserved" rho avg_util

let diurnal_windowed_adaptive_tracks () =
  (* Under strong swings the windowed estimator should do at least as
     well as the cumulative one (which averages the day away), and both
     must beat WRR. *)
  let speeds = [| 1.0; 1.0; 8.0 |] in
  let day = 20_000.0 in
  let workload =
    Cluster.Workload.diurnal ~rho:0.55 ~amplitude:0.35 ~day_length:day ~speeds
  in
  let run scheduler =
    let cfg =
      Cluster.Simulation.default_config ~horizon:(day *. 8.0) ~warmup:day ~speeds
        ~workload ~scheduler ()
    in
    (Cluster.Simulation.run cfg).Cluster.Simulation.metrics
      .Core.Metrics.mean_response_ratio
  in
  let windowed =
    run (Cluster.Scheduler.adaptive_orr ~period:(day /. 10.0) ~windowed:true ())
  in
  let wrr = run (Cluster.Scheduler.static Core.Policy.wrr) in
  Alcotest.(check bool)
    (Printf.sprintf "windowed adaptive %.3f beats WRR %.3f" windowed wrr)
    true (windowed < wrr)

let diurnal_suite =
  [
    test "diurnal: validation" diurnal_validation;
    test "diurnal: rate modulation shape" diurnal_rate_modulation;
    slow_test "diurnal: mean load realised" diurnal_load_realised;
    slow_test "diurnal: windowed adaptive beats WRR" diurnal_windowed_adaptive_tracks;
    test "adaptive: windowed naming" (fun () ->
        Alcotest.(check string) "name" "AdaptiveORR(T=100,window)"
          (Cluster.Scheduler.name
             (Cluster.Scheduler.adaptive_orr ~period:100.0 ~windowed:true ())));
  ]

let suite = suite @ diurnal_suite

(* ------------------------------------------------------------------ *)
(* Policy labels                                                       *)

(* Scheduler labels reach CSV headers, journals and the daemon's
   /policy body, so every one is pinned here: each name of the shared
   vocabulary, plus the settings only the extension studies reach. *)
let policy_labels () =
  let of_name s =
    match Cluster.Scheduler.of_name s with Ok k -> k | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string)) "labels"
    [ "WRAN"; "ORAN"; "WRR"; "ORR"; "LeastLoad"; "LeastLoad(d=2)";
      "AdaptiveORR(T=10000)"; "SITA-E(small->fast)"; "JSQ(d=2)"; "JSQ(d=2,uniform)";
      "JIQ"; "AdaptiveORR(T=10000,window)"; "StaleLeastLoad(T=100,blind)";
      "LeastLoad(instant)" ]
    (List.map Cluster.Scheduler.name
       (List.map of_name Cluster.Scheduler.names
       @ [ Cluster.Scheduler.adaptive_orr ~windowed:true ();
           Cluster.Scheduler.stale_least_load ~count_in_flight:false
             ~poll_period:100.0 ();
           Cluster.Scheduler.least_load_instant ]))

let suite = suite @ [ test "scheduler: every policy label pinned" policy_labels ]
