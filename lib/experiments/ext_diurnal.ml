module Cluster = Statsched_cluster
module Core = Statsched_core

let default_amplitudes = [ 0.0; 0.1; 0.2; 0.3 ]

type t = (float * (string * Runner.point) list) list

let run ?(scale = Config.default_scale) ?seed ?jobs ?(speeds = Core.Speeds.table3)
    ?(rho = Config.base_utilization) ?(day_length = 86_400.0)
    ?(amplitudes = default_amplitudes) () =
  List.map
    (fun amplitude ->
      let workload = Cluster.Workload.diurnal ~rho ~amplitude ~day_length ~speeds in
      (* Track roughly a tenth of a day per estimation window. *)
      let window_period = day_length /. 10.0 in
      let schedulers =
        [
          ("ORR@mean", Cluster.Scheduler.Static Core.Policy.orr);
          ("AdaptORR", Cluster.Scheduler.adaptive_orr ());
          ( "AdaptORR/win",
            Cluster.Scheduler.adaptive_orr ~period:window_period ~windowed:true () );
          ("WRR", Cluster.Scheduler.Static Core.Policy.wrr);
          ("LeastLoad", Cluster.Scheduler.least_load_paper);
        ]
      in
      (amplitude, Sweep.over_schedulers ?seed ?jobs ~scale ~schedulers ~speeds ~workload ()))
    amplitudes

let to_report t =
  Report.render_sweep
    (Sweep.sweep_of_rows
       ~title:"Extension: diurnal load swings around the mean utilisation"
       ~xlabel:"amplitude" ~metric:`Ratio t)

let adaptive ?(scale = Config.default_scale) ?seed ?jobs () =
  let speeds = Core.Speeds.table3 in
  List.map
    (fun rho ->
      let workload = Cluster.Workload.paper_default ~rho ~speeds in
      let schedulers =
        [
          ("ORR (oracle rho)", Cluster.Scheduler.Static Core.Policy.orr);
          ("AdaptiveORR", Cluster.Scheduler.adaptive_orr ());
          ("WRR", Cluster.Scheduler.Static Core.Policy.wrr);
        ]
      in
      (rho, Sweep.over_schedulers ?seed ?jobs ~scale ~schedulers ~speeds ~workload ()))
    [ 0.3; 0.5; 0.7; 0.9 ]

let adaptive_report t =
  Report.render_sweep
    (Sweep.sweep_of_rows ~title:"AdaptiveORR vs oracle ORR" ~xlabel:"utilization"
       ~metric:`Ratio t)
