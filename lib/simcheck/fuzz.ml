module Core = Statsched_core
module Cluster = Statsched_cluster
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Scenario generator                                                  *)

(* Draws from curated grids rather than raw floats: every generated
   value is a configuration a user could plausibly type, which keeps the
   shrunk counterexamples readable and the replay commands short.
   [oneofl] shrinks toward the head of each list, so the lists lead with
   their most vanilla member. *)

let speeds_gen =
  let speed = Gen.oneofl [ 1.0; 0.5; 1.5; 2.0; 4.0; 12.0 ] in
  Gen.(list_size (int_range 1 4) speed >|= Array.of_list)

let faults_gen =
  Gen.(
    oneof
      [
        return None;
        (let* mtbf = oneofl [ 2000.0; 500.0 ] in
         let* mttr = oneofl [ 20.0; 100.0 ] in
         let* on_failure =
           oneofl
             [ Cluster.Fault.Requeue; Cluster.Fault.Resume; Cluster.Fault.Drop ]
         in
         return (Some { Scenario.mtbf; mttr; on_failure }));
      ])

let scenario_gen =
  Gen.(
    let* speeds = speeds_gen in
    let* faults = faults_gen in
    (* A crashed computer removes capacity; keep the offered load low
       enough that the degraded cluster still has a steady state. *)
    let* rho =
      match faults with
      | None -> oneofl [ 0.5; 0.3; 0.7; 0.85; 0.95 ]
      | Some _ -> oneofl [ 0.5; 0.3; 0.7 ]
    in
    let* policy = oneofl Cluster.Scheduler.names in
    let* mean_size = oneofl [ 10.0; 50.0 ] in
    let* discipline =
      oneofl
        [
          Cluster.Simulation.Ps;
          Cluster.Simulation.Fcfs;
          Cluster.Simulation.Srpt;
          Cluster.Simulation.Rr (mean_size /. 8.0);
        ]
    in
    let* arrival_cv = oneofl [ 1.0; 0.5; 3.0 ] in
    let* size =
      oneofl
        [
          Scenario.Exp;
          Scenario.Det;
          Scenario.Erlang 4;
          Scenario.Hyperexp 2.0;
          Scenario.Lognormal 2.0;
          Scenario.Weibull 0.5;
          Scenario.Bp_paper;
        ]
    in
    let* seed = int_range 1 9999 in
    return
      (Scenario.v ~discipline ~arrival_cv ~size ~mean_size ?faults
         ~seed:(Int64.of_int seed) ~speeds ~rho ~policy ()))

(* ------------------------------------------------------------------ *)
(* The property                                                        *)

let check_result (r : Cluster.Simulation.result) =
  let m = r.Cluster.Simulation.metrics in
  let failures = ref [] in
  let expect cond msg = if not cond then failures := msg :: !failures in
  let finite name v =
    expect
      (Float.is_finite v && v >= 0.0)
      (Printf.sprintf "%s = %g is not a finite non-negative number" name v)
  in
  finite "mean response time" m.Core.Metrics.mean_response_time;
  finite "mean response ratio" m.Core.Metrics.mean_response_ratio;
  finite "fairness" m.Core.Metrics.fairness;
  expect (m.Core.Metrics.jobs > 0) "no job measured";
  expect
    (m.Core.Metrics.availability >= 0.0 && m.Core.Metrics.availability <= 1.0 +. 1e-9)
    (Printf.sprintf "availability %g outside [0,1]" m.Core.Metrics.availability);
  Array.iteri
    (fun i (pc : Cluster.Simulation.per_computer) ->
      expect
        (pc.Cluster.Simulation.utilization >= 0.0
        && pc.Cluster.Simulation.utilization <= 1.0 +. 1e-9)
        (Printf.sprintf "computer %d utilization %g outside [0,1]" i
           pc.Cluster.Simulation.utilization);
      expect
        (pc.Cluster.Simulation.mean_jobs >= -1e-9
        && Float.is_finite pc.Cluster.Simulation.mean_jobs)
        (Printf.sprintf "computer %d mean jobs %g negative or infinite" i
           pc.Cluster.Simulation.mean_jobs);
      expect
        (pc.Cluster.Simulation.dispatched >= 0
        && pc.Cluster.Simulation.completed >= 0)
        (Printf.sprintf "computer %d has negative dispatch/completion counts" i))
    r.Cluster.Simulation.per_computer;
  let measured_completions =
    Array.fold_left
      (fun acc (pc : Cluster.Simulation.per_computer) ->
        acc + pc.Cluster.Simulation.completed)
      0 r.Cluster.Simulation.per_computer
  in
  expect
    (measured_completions = m.Core.Metrics.jobs)
    (Printf.sprintf "per-computer completions %d != measured jobs %d"
       measured_completions m.Core.Metrics.jobs);
  expect
    (measured_completions <= r.Cluster.Simulation.total_arrivals)
    (Printf.sprintf "more completions (%d) than arrivals (%d)"
       measured_completions r.Cluster.Simulation.total_arrivals);
  let fraction_sum =
    Array.fold_left ( +. ) 0.0 r.Cluster.Simulation.dispatch_fractions
  in
  let dispatched_total =
    Array.fold_left
      (fun acc (pc : Cluster.Simulation.per_computer) ->
        acc + pc.Cluster.Simulation.dispatched)
      0 r.Cluster.Simulation.per_computer
  in
  if dispatched_total > 0 then
    expect
      (abs_float (fraction_sum -. 1.0) <= 1e-9)
      (Printf.sprintf "dispatch fractions sum to %.12f" fraction_sum);
  (match r.Cluster.Simulation.intended_fractions with
  | Some intended
    when Option.is_none r.Cluster.Simulation.fault_summary
         && dispatched_total >= 500 ->
    (* Static dispatch on a reliable cluster: long-run fractions must sit
       within a generous z=5 binomial bound of the intended allocation. *)
    Array.iteri
      (fun i p ->
        let actual = r.Cluster.Simulation.dispatch_fractions.(i) in
        let n = float_of_int dispatched_total in
        let bound = (5.0 *. sqrt (p *. (1.0 -. p) /. n)) +. (2.0 /. n) in
        expect
          (abs_float (actual -. p) <= bound)
          (Printf.sprintf
             "computer %d dispatched fraction %.5f vs intended %.5f (bound %.5f)"
             i actual p bound))
      intended
  | _ -> ());
  match !failures with [] -> Ok () | l -> Error (String.concat "; " (List.rev l))

let check ~horizon ~warmup sc =
  match
    Cluster.Simulation.run ~sanitize:true
      (Cluster.Simulation.default_config ~discipline:sc.Scenario.discipline
         ?faults:(Scenario.fault_plan sc) ~horizon ~warmup ~seed:sc.Scenario.seed
         ~speeds:sc.Scenario.speeds ~workload:(Scenario.workload sc)
         ~scheduler:(Scenario.scheduler_of_name sc.Scenario.policy) ())
  with
  | r -> check_result r
  | exception Cluster.Sanitize.Violation { invariant; message } ->
    Error (Printf.sprintf "sanitizer (%s): %s" invariant message)
  | exception e -> Error ("uncaught exception: " ^ Printexc.to_string e)

let default_horizon = 8000.0
let default_warmup = 2000.0

let property ~horizon ~warmup sc =
  match check ~horizon ~warmup sc with
  | Ok () -> true
  | Error msg ->
    QCheck2.Test.fail_reportf "%s@.replay: %s" msg
      (Scenario.to_run_command ~horizon ~warmup sc)

let test ?(count = 30) ?(horizon = default_horizon) ?(warmup = default_warmup) ()
    =
  QCheck2.Test.make ~count ~name:"simcheck-fuzz"
    ~print:(fun sc -> Scenario.to_run_command ~horizon ~warmup sc)
    scenario_gen
    (property ~horizon ~warmup)

let run ?count ?(seed = 0) ?horizon ?warmup () =
  let t = test ?count ?horizon ?warmup () in
  (* The fuzzer's only source of randomness; seeded for reproducible CI.
     Counterexamples are replayed via the printed command, not this
     state. *)
  let rand = Random.State.make [| seed |] (* schedlint: allow R1 R7 *) in
  match QCheck2.Test.check_exn ~rand t with
  | () ->
    [
      Check.v ~label:"fuzz" ~ok:true
        ~detail:
          (Printf.sprintf "%d random configurations, no invariant violated"
             (match count with Some c -> c | None -> 30));
    ]
  | exception QCheck2.Test.Test_fail (_, messages) ->
    [
      Check.v ~label:"fuzz" ~ok:false
        ~detail:("shrunk counterexample: " ^ String.concat " | " messages);
    ]
  | exception QCheck2.Test.Test_error (_, instance, e, _) ->
    [
      Check.v ~label:"fuzz" ~ok:false
        ~detail:
          (Printf.sprintf "exception %s on %s" (Printexc.to_string e) instance);
    ]
