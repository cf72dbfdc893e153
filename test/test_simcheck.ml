(* Tests for the simcheck verification subsystem itself: the band
   decision logic, the scenario string round-trips and replay commands,
   and the fuzzer's generator/shrinker/reporting machinery. *)

open Test_util
module S = Statsched_simcheck
module Cluster = Statsched_cluster
module Confidence = Statsched_stats.Confidence

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let band_decisions () =
  let samples = [| 1.0; 1.02; 0.98; 1.01; 0.99 |] in
  let ok = S.Band.of_samples ~name:"hit" ~theory:1.0 samples in
  Alcotest.(check bool) "estimate inside band passes" true ok.S.Band.ok;
  let off = S.Band.of_samples ~name:"miss" ~theory:2.0 samples in
  Alcotest.(check bool) "estimate far outside band fails" false off.S.Band.ok;
  (* The bias allowance admits a small systematic offset the t-interval
     alone would reject. *)
  let biased = S.Band.of_samples ~bias:1.1 ~name:"bias" ~theory:2.0 samples in
  Alcotest.(check bool) "bias allowance widens the band" true biased.S.Band.ok;
  (* An infinite prediction needs an infinite estimate... *)
  let sat = S.Band.of_samples ~name:"sat" ~theory:infinity samples in
  Alcotest.(check bool) "finite estimate vs infinite theory fails" false
    sat.S.Band.ok;
  let sat_ok =
    S.Band.of_samples ~name:"sat" ~theory:infinity [| infinity; infinity |]
  in
  Alcotest.(check bool) "infinite estimate vs infinite theory passes" true
    sat_ok.S.Band.ok;
  (* ...and nan on either side always fails. *)
  let nan_theory = S.Band.of_samples ~name:"nan" ~theory:nan samples in
  Alcotest.(check bool) "nan theory fails" false nan_theory.S.Band.ok;
  (* A single replication has no half-width; the bias term decides. *)
  let single = S.Band.of_samples ~name:"single" ~theory:1.0 [| 1.005 |] in
  Alcotest.(check bool) "single sample within bias passes" true single.S.Band.ok;
  let single_off = S.Band.of_samples ~name:"single" ~theory:1.0 [| 1.5 |] in
  Alcotest.(check bool) "single sample outside bias fails" false
    single_off.S.Band.ok

let check_verdicts () =
  let pass = S.Check.v ~label:"a" ~ok:true ~detail:"fine" in
  let fail = S.Check.v ~label:"b" ~ok:false ~detail:"broken" in
  Alcotest.(check bool) "all_ok" true (S.Check.all_ok [ pass ]);
  Alcotest.(check bool) "all_ok spots failure" false (S.Check.all_ok [ pass; fail ]);
  Alcotest.(check int) "failures filters" 1 (List.length (S.Check.failures [ pass; fail ]));
  let rendered = Format.asprintf "%a" S.Check.pp fail in
  Alcotest.(check bool) "pp shows FAIL" true (contains ~needle:"[FAIL]" rendered);
  Alcotest.(check bool) "pp shows label" true (contains ~needle:"b" rendered)

(* ------------------------------------------------------------------ *)

let scenario_round_trips () =
  List.iter
    (fun d ->
      match S.Scenario.(discipline_of_string (discipline_to_string d)) with
      | Some d' ->
        Alcotest.(check string) "discipline round-trip"
          (S.Scenario.discipline_to_string d)
          (S.Scenario.discipline_to_string d')
      | None -> Alcotest.fail "discipline failed to parse back")
    [ Cluster.Simulation.Ps; Cluster.Simulation.Fcfs; Cluster.Simulation.Srpt;
      Cluster.Simulation.Rr 0.25 ];
  List.iter
    (fun s ->
      match S.Scenario.(size_dist_of_string (size_dist_to_string s)) with
      | Some s' ->
        Alcotest.(check string) "size-dist round-trip"
          (S.Scenario.size_dist_to_string s)
          (S.Scenario.size_dist_to_string s')
      | None -> Alcotest.fail "size dist failed to parse back")
    [ S.Scenario.Exp; S.Scenario.Bp_paper; S.Scenario.Weibull 0.5;
      S.Scenario.Lognormal 2.0; S.Scenario.Erlang 4; S.Scenario.Hyperexp 2.0;
      S.Scenario.Det ];
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Option.is_none (S.Scenario.size_dist_of_string bad)))
    [ "weibull:0"; "weibull:x"; "erlang:0"; "hyperexp:0.5"; "nope"; "rr:1" ];
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" bad)
        true
        (Option.is_none (S.Scenario.discipline_of_string bad)))
    [ "rr:0"; "rr:-1"; "rr"; "lifo" ]

let scenario_size_means () =
  List.iter
    (fun (sd, mean) ->
      check_close ~rel:1e-9
        (S.Scenario.size_dist_to_string sd ^ " hits requested mean")
        mean
        (Statsched_dist.Distribution.mean (S.Scenario.size_distribution ~mean sd)))
    [ (S.Scenario.Exp, 10.0); (S.Scenario.Weibull 0.5, 10.0);
      (S.Scenario.Weibull 0.0125, 3.0); (S.Scenario.Lognormal 2.0, 76.8);
      (S.Scenario.Erlang 4, 5.0); (S.Scenario.Hyperexp 2.0, 50.0);
      (S.Scenario.Det, 10.0) ]

let scenario_replay_command () =
  let sc =
    S.Scenario.v ~discipline:(Cluster.Simulation.Rr 1.25) ~arrival_cv:3.0
      ~size:(S.Scenario.Weibull 0.5) ~mean_size:10.0
      ~faults:
        { S.Scenario.mtbf = 500.0; mttr = 20.0;
          on_failure = Cluster.Fault.Resume }
      ~seed:42L
      ~speeds:[| 1.0; 2.0 |]
      ~rho:0.7 ~policy:"oran" ()
  in
  let cmd = S.Scenario.to_run_command ~horizon:8000.0 ~warmup:2000.0 sc in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle cmd))
    [ "schedsim run"; "-s 1,2"; "-u 0.7"; "-p oran"; "--discipline rr:1.25";
      "--arrival-cv 3"; "--size-dist weibull:0.5"; "--mean-size 10";
      "--seed 42"; "--horizon 8000"; "--warmup 2000"; "--mtbf 500";
      "--mttr 20"; "--on-failure resume"; "--sanitize" ]

let scenario_scheduler_names () =
  List.iter
    (fun name -> ignore (S.Scenario.scheduler_of_name name))
    Cluster.Scheduler.names;
  Alcotest.check_raises "unknown scheduler rejected"
    (Invalid_argument
       ("unknown policy \"bogus\" (known: "
       ^ String.concat ", " Cluster.Scheduler.names
       ^ ")")) (fun () ->
      ignore (S.Scenario.scheduler_of_name "bogus"))

(* ------------------------------------------------------------------ *)

(* Every generated scenario must be runnable and clean at a tiny
   horizon: this is the fuzz property itself, registered in the suite at
   a small count so `dune runtest` exercises generator + property end to
   end (the @simcheck alias runs the bigger tiers). *)
let fuzz_property = QCheck_alcotest.to_alcotest (S.Fuzz.test ~count:10 ())

(* The reporting path: a deliberately false property over the same
   generator must shrink and print a replayable command. *)
let fuzz_reports_replayable_counterexample () =
  let t =
    QCheck2.Test.make ~count:5 ~name:"always-fails"
      ~print:(fun sc -> S.Scenario.to_run_command sc)
      S.Fuzz.scenario_gen
      (fun _ -> false)
  in
  match QCheck2.Test.check_exn ~rand:(Random.State.make [| 11 |] (* schedlint: allow R1: oracle for Rng.split independence *)) t with
  | () -> Alcotest.fail "false property passed"
  | exception QCheck2.Test.Test_fail (_, messages) ->
    Alcotest.(check bool) "counterexample is a replayable command" true
      (List.exists (contains ~needle:"schedsim run") messages)

(* A saturating configuration must be caught by the structural
   invariants, not crash the checker. *)
let fuzz_check_flags_bad_config () =
  let sc =
    S.Scenario.v ~speeds:[| 1.0 |] ~rho:0.5 ~policy:"orr" ~seed:3L
      ~mean_size:1.0 ()
  in
  (match S.Fuzz.check ~horizon:4000.0 ~warmup:1000.0 sc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("clean config flagged: " ^ e));
  (* ORAN's one fraction on one computer rounds just above 1; the
     static-fraction bound must not turn into NaN there. *)
  (match
     S.Fuzz.check ~horizon:18000.0 ~warmup:4500.0
       (S.Scenario.v ~speeds:[| 1.0 |] ~rho:0.3 ~policy:"oran" ~arrival_cv:3.0
          ~mean_size:10.0 ~seed:8832L ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("single-computer ORAN flagged: " ^ e));
  (* Horizon entirely inside the warm-up window: nothing is measured,
     which the invariants must surface as an error, not an exception. *)
  match S.Fuzz.check ~horizon:10.0 ~warmup:9.99 sc with
  | Ok () -> Alcotest.fail "degenerate window passed the invariants"
  | Error _ -> ()

(* A slow, bursty scenario the fixed 8000 s window could not measure:
   15 arrivals, all before the 2000 s warm-up ended, so the simulator
   refused the run and the property reported the refusal as a
   violation.  Its window now comes from its arrival rate. *)
let fuzz_window_fits_slow_bursty_scenario () =
  let sc =
    S.Scenario.v ~speeds:[| 1.0 |] ~rho:0.3 ~policy:"wran" ~arrival_cv:3.0
      ~size:S.Scenario.Exp ~mean_size:50.0 ~seed:4004L
      ~faults:
        {
          S.Scenario.mtbf = 2000.0;
          mttr = 20.0;
          on_failure = Cluster.Fault.Requeue;
        }
      ()
  in
  Alcotest.(check string) "the reported counterexample"
    "schedsim run -s 1 -u 0.3 -p wran --discipline ps --arrival-cv 3 \
     --size-dist exp --mean-size 50 --seed 4004 --horizon 8000 --warmup 2000 \
     --mtbf 2000 --mttr 20 --on-failure requeue --sanitize"
    (S.Scenario.to_run_command ~horizon:8000.0 ~warmup:2000.0 sc);
  let horizon, warmup = S.Fuzz.window sc in
  Alcotest.(check bool)
    (Printf.sprintf "window %g/%g longer than 8000/2000" horizon warmup)
    true
    (horizon > 8000.0 && warmup > 2000.0);
  match S.Fuzz.check ~horizon ~warmup sc with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("slow bursty scenario flagged: " ^ e)

(* A requeue scenario with no steady state: every crash of the one PS
   computer restarts every job present, the backlog outgrows the MTBF,
   and completions stop while arrivals go on, so the simulator refuses
   the run.  The generator used to draw it (simcheck fuzz --count 100,
   seeds 2, 20 and 29); SITA with deterministic sizes (seed 19) sent
   nearly every job to one computer.  Neither can be drawn now. *)
let fuzz_draws_only_steady_scenarios () =
  let livelock =
    S.Scenario.v ~speeds:[| 1.0 |] ~rho:0.7 ~policy:"wran"
      ~size:S.Scenario.Det ~mean_size:50.0 ~seed:1L
      ~faults:
        {
          S.Scenario.mtbf = 500.0;
          mttr = 20.0;
          on_failure = Cluster.Fault.Requeue;
        }
      ()
  in
  Alcotest.(check string) "the reported counterexample"
    "schedsim run -s 1 -u 0.7 -p wran --discipline ps --arrival-cv 1 \
     --size-dist det --mean-size 50 --seed 1 --horizon 39000 --warmup 9750 \
     --mtbf 500 --mttr 20 --on-failure requeue --sanitize"
    (S.Scenario.to_run_command ~horizon:39000.0 ~warmup:9750.0 livelock);
  Alcotest.(check bool) "livelocking requeue scenario refused" false
    (S.Fuzz.reaches_steady_state livelock);
  Alcotest.check_raises "sita with non-BP sizes refused"
    (Invalid_argument
       "policy sita needs size distribution bp: its cutoffs are the paper's \
        bounded-Pareto quantiles (got det)")
    (fun () ->
      ignore
        (S.Scenario.v ~speeds:[| 1.5; 2.0; 2.0 |] ~rho:0.85 ~policy:"sita"
           ~size:S.Scenario.Det ~mean_size:10.0 ()));
  let drawn =
    QCheck2.Gen.generate ~n:20_000
      ~rand:(Random.State.make [| 17 |] (* schedlint: allow R1: fixed seed for a sample of the generator *))
      S.Fuzz.scenario_gen
  in
  let requeues =
    List.length
      (List.filter
         (fun sc ->
           match sc.S.Scenario.faults with
           | Some { S.Scenario.on_failure = Cluster.Fault.Requeue; _ } -> true
           | Some _ | None -> false)
         drawn)
  in
  List.iter
    (fun sc ->
      if not (S.Fuzz.reaches_steady_state sc) then
        Alcotest.failf "drew a scenario with no steady state: %s"
          (S.Scenario.to_run_command sc);
      match sc.S.Scenario.size with
      | S.Scenario.Bp_paper -> ()
      | _ ->
        if String.equal sc.S.Scenario.policy "sita" then
          Alcotest.failf "drew sita without BP sizes: %s"
            (S.Scenario.to_run_command sc))
    drawn;
  Alcotest.(check bool)
    (Printf.sprintf "requeue still drawn (%d of 20000)" requeues)
    true (requeues > 100)

(* ------------------------------------------------------------------ *)

(* One pocket-sized differential case through the real Oracle path:
   tiny scale, so `dune runtest` proves the plumbing (replicate ->
   samples -> bands) without re-running the whole tier. *)
let oracle_smoke () =
  let scale = { Statsched_experiments.Config.horizon = 1.0e4; warmup = 2.5e3; reps = 3 } in
  let checks = S.Oracle.run ~scale ~seed:5L ~jobs:1 () in
  Alcotest.(check bool) "oracle produced checks" true (List.length checks > 20);
  List.iter
    (fun (c : S.Check.t) ->
      if not c.S.Check.ok then
        Alcotest.failf "oracle check failed at smoke scale: %s" c.S.Check.detail)
    checks

let metamorphic_smoke () =
  let scale = { Statsched_experiments.Config.horizon = 8.0e3; warmup = 2.0e3; reps = 3 } in
  let checks = S.Metamorphic.run ~scale ~seed:5L ~jobs:1 () in
  Alcotest.(check bool) "metamorphic produced checks" true (List.length checks > 30);
  List.iter
    (fun (c : S.Check.t) ->
      if not c.S.Check.ok then
        Alcotest.failf "metamorphic check failed at smoke scale: %s"
          c.S.Check.detail)
    checks

let suite =
  [
    test "simcheck: band decisions" band_decisions;
    test "simcheck: check verdicts" check_verdicts;
    test "simcheck: scenario round-trips" scenario_round_trips;
    test "simcheck: scenario size means" scenario_size_means;
    test "simcheck: replay command" scenario_replay_command;
    test "simcheck: scheduler names" scenario_scheduler_names;
    fuzz_property;
    test "simcheck: fuzz reports replayable counterexample"
      fuzz_reports_replayable_counterexample;
    test "simcheck: fuzz check flags degenerate config" fuzz_check_flags_bad_config;
    slow_test "simcheck: oracle smoke" oracle_smoke;
    slow_test "simcheck: metamorphic smoke" metamorphic_smoke;
    test "simcheck: fuzz window fits a slow bursty scenario"
      fuzz_window_fits_slow_bursty_scenario;
    test "simcheck: fuzz draws only steady-state scenarios"
      fuzz_draws_only_steady_scenarios;
  ]
