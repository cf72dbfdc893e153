type metric = [ `Time | `Ratio | `Fairness | `Median | `P99 ]

type cell = {
  speeds : float array;
  workload : Statsched_cluster.Workload.t;
  faults : Statsched_cluster.Fault.plan option;
  discipline : Statsched_cluster.Simulation.discipline;
  schedulers : (string * Statsched_cluster.Scheduler.kind) list;
  scale : Config.scale;
}

let measure ?seed ?jobs c =
  List.map
    (fun (name, scheduler) ->
      let spec =
        Runner.make_spec ~discipline:c.discipline ?faults:c.faults ~speeds:c.speeds
          ~workload:c.workload ~scheduler ()
      in
      (name, Runner.measure ?seed ?jobs ~scale:c.scale spec))
    c.schedulers

let over_schedulers ?seed ?jobs ?faults ~scale ~schedulers ~speeds ~workload () =
  measure ?seed ?jobs
    {
      speeds;
      workload;
      faults;
      discipline = Statsched_cluster.Simulation.Ps;
      schedulers;
      scale;
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
  List.map (fun x -> (x, measure ?seed ?jobs (study.cell ~scale x))) study.xs

let metric_name = function
  | `Time -> "mean response time"
  | `Ratio -> "mean response ratio"
  | `Fairness -> "fairness (std of response ratio)"
  | `Median -> "median response ratio"
  | `P99 -> "p99 response ratio"

let cell_of metric point =
  let open Runner in
  match metric with
  | `Time -> Report.Interval point.mean_response_time
  | `Ratio -> Report.Interval point.mean_response_ratio
  | `Fairness -> Report.Interval point.fairness
  | `Median -> Report.Float point.median_ratio
  | `P99 -> Report.Float point.p99_ratio

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

type table = {
  preamble : string;
  header : string list;
  metrics : metric list;
  rows : scale:Config.scale -> (Report.cell list * cell) list;
  note : string;
}

type table_rows = (Report.cell list * (string * Runner.point) list) list

let run_table ?seed ?jobs ~scale table =
  List.map (fun (labels, c) -> (labels, measure ?seed ?jobs c)) (table.rows ~scale)

let table_to_report table rows =
  let row (labels, points) =
    labels
    @ List.concat_map
        (fun (_, p) -> List.map (fun m -> cell_of m p) table.metrics)
        points
  in
  table.preamble
  ^ Report.render ~header:table.header ~rows:(List.map row rows)
  ^ table.note
