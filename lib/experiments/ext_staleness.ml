module Cluster = Statsched_cluster
module Core = Statsched_core

let default_poll_periods = [ 1.0; 10.0; 100.0; 1000.0; 10000.0 ]

type t = (float * (string * Runner.point) list) list

let run ?(scale = Config.default_scale) ?seed ?jobs ?(speeds = Core.Speeds.table3)
    ?(poll_periods = default_poll_periods) () =
  let workload =
    Cluster.Workload.paper_default ~rho:Config.base_utilization ~speeds
  in
  List.map
    (fun period ->
      let schedulers =
        [
          ( "StaleLL",
            Cluster.Scheduler.stale_least_load ~poll_period:period () );
          ( "StaleLL/blind",
            Cluster.Scheduler.stale_least_load ~count_in_flight:false
              ~poll_period:period () );
          ("ORR", Cluster.Scheduler.Static Core.Policy.orr);
          ("LeastLoad", Cluster.Scheduler.least_load_paper);
        ]
      in
      (period, Sweep.over_schedulers ?seed ?jobs ~scale ~schedulers ~speeds ~workload ()))
    poll_periods

let to_report t =
  Report.render_sweep
    (Sweep.sweep_of_rows
       ~title:"Extension: load-information staleness (Table 3, rho=0.7)"
       ~xlabel:"poll period (s)" ~metric:`Ratio t)

let partial_information ?(scale = Config.default_scale) ?seed ?jobs () =
  let speeds = Core.Speeds.table3 in
  let workload =
    Cluster.Workload.paper_default ~rho:Config.base_utilization ~speeds
  in
  let schedulers =
    [
      ("ORR", Cluster.Scheduler.Static Core.Policy.orr);
      ("LeastLoad(d=2)", Cluster.Scheduler.two_choices ~d:2 ());
      ("LeastLoad(d=4)", Cluster.Scheduler.two_choices ~d:4 ());
      ("LeastLoad", Cluster.Scheduler.least_load_paper);
    ]
  in
  Sweep.over_schedulers ?seed ?jobs ~scale ~schedulers ~speeds ~workload ()

let partial_information_report points =
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
  ^ "Note: JSQ(d) probes d random computers per decision; with heterogeneous\n\
     speeds it can probe only slow machines, so it needs d well above 2 to\n\
     approach full Least-Load — ORR gets most of the way with zero probes.\n"
