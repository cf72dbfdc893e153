module Cluster = Statsched_cluster
module Core = Statsched_core

let default_ns = [ 100; 1_000; 10_000 ]

let default_jobs_target = 1.0e7

type cell = {
  policy : string;
  n : int;
  mean_response_ratio : float;
  p99_response_ratio : float;
  jobs_completed : int;
  events_executed : int;
  wall_seconds : float;
  events_per_sec : float;
  jobs_per_sec : float;
  heap_high_water : int;
}

type t = {
  rho : float;
  jobs_target : float;
  ns : int list;
  d : int;
  cells : cell list;
}

(* 10 % fast computers at speed 10, the rest at speed 1: heterogeneous
   enough that speed-blind sampling visibly loses to the
   heterogeneity-aware dispatchers, regular enough that every n scales
   the same shape. *)
let speeds_for n =
  let n_fast = max 1 (n / 10) in
  Core.Speeds.two_class ~n_fast ~fast:10.0 ~n_slow:(n - n_fast) ~slow:1.0

(* The four many-server regimes: deterministic static (lazy ORR,
   O(log n)), full information (JSQ with d = n, the tournament-tree
   least-load), sampled information (JSQ(d), O(d)) and idle-driven
   (JIQ, O(1)).  The sampled regime runs twice — speed-weighted probes
   (the default) and the speed-blind uniform sampler — so the sweep
   prices exactly what probe weighting buys on the two-class cluster. *)
let policies ~n ~d =
  [
    ( "ORR",
      Cluster.Scheduler.Static_custom
        {
          label = "ORR";
          make =
            (fun ~rho ~speeds ~rng:_ ->
              Core.Dispatch.round_robin_lazy (Core.Allocation.optimized ~rho speeds));
        } );
    ("LeastLoad", Cluster.Scheduler.jsq ~d:n ());
    (Printf.sprintf "JSQ(d=%d)" d, Cluster.Scheduler.jsq ~d ());
    ( Printf.sprintf "JSQ(d=%d,uniform)" d,
      Cluster.Scheduler.jsq ~d ~weighted:false () );
    ("JIQ", Cluster.Scheduler.jiq);
  ]

let run_cell ~seed ~rho ~jobs_target ~n (label, scheduler) =
  let speeds = speeds_for n in
  let workload = Cluster.Workload.paper_default ~rho ~speeds in
  (* Fix the job count, not the simulated time: the arrival rate grows
     with the cluster's total speed, so [jobs_target] jobs at any n take
     [jobs_target / lambda] simulated seconds.  First tenth is warm-up. *)
  let horizon = jobs_target /. Cluster.Workload.arrival_rate workload in
  let warmup = 0.1 *. horizon in
  let cfg =
    Cluster.Simulation.default_config ~horizon ~warmup ~seed ~speeds ~workload
      ~scheduler ()
  in
  let started = Statsched_obs.Clock.now () in
  let result = Cluster.Simulation.run cfg in
  let wall = Statsched_obs.Clock.elapsed ~since:started in
  let per_sec count = if wall > 0.0 then float_of_int count /. wall else 0.0 in
  let open Cluster.Simulation in
  {
    policy = label;
    n;
    mean_response_ratio = result.metrics.Core.Metrics.mean_response_ratio;
    p99_response_ratio = result.p99_response_ratio;
    jobs_completed = result.metrics.Core.Metrics.jobs;
    events_executed = result.events_executed;
    wall_seconds = wall;
    events_per_sec = per_sec result.events_executed;
    jobs_per_sec = per_sec result.metrics.Core.Metrics.jobs;
    heap_high_water = result.heap_high_water;
  }

let run ?(seed = Config.default_seed) ?jobs ?(ns = default_ns)
    ?(jobs_target = default_jobs_target) ?(d = 2) ?(rho = Config.base_utilization)
    () =
  if d < 1 then invalid_arg "Ext_scale.run: d < 1";
  List.iter (fun n -> if n < 1 then invalid_arg "Ext_scale.run: n < 1") ns;
  if jobs_target < 1.0 then invalid_arg "Ext_scale.run: jobs_target < 1";
  let grid =
    List.concat_map
      (fun n -> List.map (fun policy -> (n, policy)) (policies ~n ~d))
      ns
  in
  let grid = Array.of_list grid in
  (* Each cell builds its own engine and RNG from [seed], so the grid
     fans out across domains without affecting any simulated result. *)
  let cells =
    Statsched_par.Par.map ?jobs (Array.length grid) (fun i ->
        let n, policy = grid.(i) in
        run_cell ~seed ~rho ~jobs_target ~n policy)
  in
  { rho; jobs_target; ns; d; cells }

let to_csv t =
  let g x = Report.Text (Printf.sprintf "%.6g" x) in
  let row c =
    Report.
      [
        Text c.policy;
        Int c.n;
        g c.mean_response_ratio;
        g c.p99_response_ratio;
        Int c.jobs_completed;
        Int c.events_executed;
        Text (Printf.sprintf "%.3f" c.wall_seconds);
        g c.events_per_sec;
        g c.jobs_per_sec;
        Int c.heap_high_water;
      ]
  in
  Report.render_csv
    ~header:
      [
        "policy"; "n"; "mean_response_ratio"; "p99_response_ratio"; "jobs"; "events";
        "wall_seconds"; "events_per_sec"; "jobs_per_sec"; "heap_high_water";
      ]
    ~rows:(List.map row t.cells)

let cells_at t n = List.filter (fun c -> c.n = n) t.cells

let to_report t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Extension: many-server scale sweep (rho=%g, %.3g jobs per run, d=%d)\n"
       t.rho t.jobs_target t.d);
  List.iter
    (fun n ->
      Buffer.add_string buf (Printf.sprintf "  n = %d\n" n);
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf
               "    %-12s mean ratio %8.3f   p99 %9.1f   %8.0f jobs/s   %8.0f events/s\n"
               c.policy c.mean_response_ratio c.p99_response_ratio c.jobs_per_sec
               c.events_per_sec))
        (cells_at t n))
    t.ns;
  Buffer.contents buf
