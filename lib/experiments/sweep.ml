let over_schedulers ?seed ?jobs ?faults ~scale ~schedulers ~speeds ~workload () =
  List.map
    (fun (name, scheduler) ->
      let spec = Runner.make_spec ?faults ~speeds ~workload ~scheduler () in
      (name, Runner.measure ?seed ?jobs ~scale spec))
    schedulers

type metric = [ `Time | `Ratio | `Fairness ]

type cell = {
  speeds : float array;
  workload : Statsched_cluster.Workload.t;
  faults : Statsched_cluster.Fault.plan option;
  schedulers : (string * Statsched_cluster.Scheduler.kind) list;
  scale : Config.scale;
}

type study = {
  title : string;
  xlabel : string;
  metrics : metric list;
  xs : float list;
  cell : scale:Config.scale -> float -> cell;
}

type rows = (float * (string * Runner.point) list) list

let run ?seed ?jobs ~scale study =
  List.map
    (fun x ->
      let c = study.cell ~scale x in
      ( x,
        over_schedulers ?seed ?jobs ?faults:c.faults ~scale:c.scale
          ~schedulers:c.schedulers ~speeds:c.speeds ~workload:c.workload () ))
    study.xs

let metric_name = function
  | `Time -> "mean response time"
  | `Ratio -> "mean response ratio"
  | `Fairness -> "fairness (std of response ratio)"

let cell_of metric point =
  let open Runner in
  Report.Interval
    (match metric with
    | `Time -> point.mean_response_time
    | `Ratio -> point.mean_response_ratio
    | `Fairness -> point.fairness)

let sweeps study rows =
  let columns =
    match rows with [] -> [] | (_, points) :: _ -> List.map fst points
  in
  List.map
    (fun metric ->
      {
        Report.title = Printf.sprintf "%s — %s" study.title (metric_name metric);
        xlabel = study.xlabel;
        columns;
        rows =
          List.map
            (fun (x, points) -> (x, List.map (fun (_, p) -> cell_of metric p) points))
            rows;
      })
    study.metrics

let to_report study rows =
  String.concat "\n" (List.map Report.render_sweep (sweeps study rows))
