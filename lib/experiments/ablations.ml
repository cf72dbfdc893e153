module Cluster = Statsched_cluster
module Core = Statsched_core
module Rng = Statsched_prng.Rng
module Stats = Statsched_stats

(* ------------------------------------------------------------------ *)
(* Dispatch smoothness                                                 *)

type dispatch_row = {
  dispatcher : string;
  mean_deviation : float;
}

let dispatch_smoothness ?(seed = Config.default_seed) () =
  let deviation_of make =
    let devs = Fig2.run_dispatcher ~seed (make Fig2.fractions) in
    (Stats.Summary.of_array devs).Stats.Summary.mean
  in
  List.map
    (fun (dispatcher, make) -> { dispatcher; mean_deviation = deviation_of make })
    [
      ("Algorithm 2 (paper)", Core.Dispatch.round_robin);
      ("no first-assignment guard", Core.Dispatch.round_robin_no_guard);
      ("index tie-breaking", Core.Dispatch.round_robin_index_ties);
      ("smooth WRR (nginx)", Core.Dispatch.smooth_weighted);
      ("golden-ratio quasi-random", Core.Dispatch.golden_ratio);
      ( "random",
        fun f -> Core.Dispatch.random ~rng:(Rng.create ~seed:(Int64.add seed 11L) ()) f );
      ( "random (alias method)",
        fun f ->
          Core.Dispatch.random_alias ~rng:(Rng.create ~seed:(Int64.add seed 12L) ()) f );
    ]

let dispatch_smoothness_report rows =
  Report.render
    ~header:[ "dispatcher"; "mean interval deviation" ]
    ~rows:
      (List.map
         (fun r -> [ Report.Text r.dispatcher; Report.Float r.mean_deviation ])
         rows)

(* ------------------------------------------------------------------ *)
(* End-to-end scheduler variants                                       *)

let end_to_end ?seed ?jobs ~scale () =
  let speeds = Core.Speeds.table3 in
  let workload = Cluster.Workload.paper_default ~rho:0.7 ~speeds in
  let schedulers =
    Schedulers.dispatch_ablations
    @ (match Schedulers.allocation_ablations with
      | _orr :: rest -> rest (* skip the duplicate ORR *)
      | [] -> [])
    @ [
        ("LeastLoad", Cluster.Scheduler.least_load_paper);
        ("LeastLoad(instant)", Cluster.Scheduler.least_load_instant);
      ]
  in
  Sweep.over_schedulers ?seed ?jobs ~scale ~schedulers ~speeds ~workload ()

let end_to_end_report points =
  Report.render
    ~header:[ "scheduler"; "mean response ratio"; "fairness" ]
    ~rows:
      (List.map
         (fun (name, p) ->
           [
             Report.Text name;
             Report.Interval p.Runner.mean_response_ratio;
             Report.Interval p.Runner.fairness;
           ])
         points)

(* ------------------------------------------------------------------ *)
(* Service disciplines                                                 *)

type discipline_row = {
  model : string;
  response_time : Stats.Confidence.interval;
  response_ratio : Stats.Confidence.interval;
}

let disciplines ?seed ?jobs ~scale () =
  let speeds = [| 1.0; 2.0 |] in
  let workload = Cluster.Workload.poisson_exponential ~rho:0.6 ~mean_size:1.0 ~speeds in
  let run model discipline =
    let spec =
      Runner.make_spec ~discipline ~speeds ~workload
        ~scheduler:(Cluster.Scheduler.static Core.Policy.wrr) ()
    in
    let p = Runner.measure ?seed ?jobs ~scale spec in
    {
      model;
      response_time = p.Runner.mean_response_time;
      response_ratio = p.Runner.mean_response_ratio;
    }
  in
  [
    run "PS (fluid)" Cluster.Simulation.Ps;
    run "RR quantum 0.1" (Cluster.Simulation.Rr 0.1);
    run "RR quantum 0.01" (Cluster.Simulation.Rr 0.01);
    run "FCFS" Cluster.Simulation.Fcfs;
    run "SRPT (size-aware)" Cluster.Simulation.Srpt;
  ]

let disciplines_report rows =
  Report.render
    ~header:[ "server model"; "mean response time"; "mean response ratio" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Report.Text r.model;
             Report.Interval r.response_time;
             Report.Interval r.response_ratio;
           ])
         rows)
  ^ "PS and small-quantum RR agree (the paper's model is faithful); FCFS pays\n\
     for size-blind queueing; SRPT bounds what size knowledge could buy.\n"

(* ------------------------------------------------------------------ *)
(* Interval-length sensitivity                                         *)

type interval_row = {
  interval_length : float;
  round_robin_deviation : float;
  random_deviation : float;
}

let interval_lengths ?(seed = Config.default_seed) () =
  List.map
    (fun interval_length ->
      let n_intervals = int_of_float (3600.0 /. interval_length) in
      let dev make =
        let devs =
          Fig2.run_dispatcher ~seed ~interval_length ~n_intervals
            (make Fig2.fractions)
        in
        (Stats.Summary.of_array devs).Stats.Summary.mean
      in
      {
        interval_length;
        round_robin_deviation = dev Core.Dispatch.round_robin;
        random_deviation =
          dev (fun f ->
              Core.Dispatch.random ~rng:(Rng.create ~seed:(Int64.add seed 13L) ()) f);
      })
    [ 30.0; 60.0; 120.0; 240.0; 480.0 ]

let interval_lengths_report rows =
  Report.render
    ~header:[ "interval (s)"; "round-robin"; "random" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Report.Float r.interval_length;
             Report.Float r.round_robin_deviation;
             Report.Float r.random_deviation;
           ])
         rows)
