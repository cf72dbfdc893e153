module Cluster = Statsched_cluster
module Stats = Statsched_stats
module Metrics = Statsched_core.Metrics
module Par = Statsched_par.Par
module Hdr = Statsched_obs.Hdr_histogram

type spec = {
  speeds : float array;
  workload : Cluster.Workload.t;
  scheduler : Cluster.Scheduler.kind;
  discipline : Cluster.Simulation.discipline;
  faults : Cluster.Fault.plan option;
}

let make_spec ?(discipline = Cluster.Simulation.Ps) ?faults ~speeds ~workload ~scheduler
    () =
  { speeds; workload; scheduler; discipline; faults }

type point = {
  label : string;
  mean_response_time : Stats.Confidence.interval;
  mean_response_ratio : Stats.Confidence.interval;
  fairness : Stats.Confidence.interval;
  median_ratio : float;
  p99_ratio : float;
  response_time_histogram : Hdr.t;
  response_ratio_histogram : Hdr.t;
  dispatch_fractions : float array;
  jobs_per_rep : float;
  availability : float;
  lost_jobs_per_rep : float;
}

let run_replication ~seed ~horizon ~warmup spec replication =
  let cfg =
    Cluster.Simulation.default_config ~discipline:spec.discipline ~horizon ~warmup
      ~seed ~replication ?faults:spec.faults ~speeds:spec.speeds
      ~workload:spec.workload ~scheduler:spec.scheduler ()
  in
  Cluster.Simulation.run cfg

let replicate ?(seed = Config.default_seed) ?jobs ~scale spec =
  (* Replication [k] draws from RNG substream [k] and builds its engine,
     servers and collectors inside the call, so the result is a pure
     function of [k] — fanning the indices across domains with [Par.map]
     returns byte-for-byte the list the sequential loop produced. *)
  Par.map ?jobs scale.Config.reps
    (run_replication ~seed ~horizon:scale.Config.horizon ~warmup:scale.Config.warmup
       spec)

let point_of_results results =
  match results with
  | [] -> invalid_arg "Runner.point_of_results: no results"
  | first :: rest ->
    let open Cluster.Simulation in
    let extract f = Array.of_list (List.map f results) in
    let times = extract (fun r -> r.metrics.Metrics.mean_response_time) in
    let ratios = extract (fun r -> r.metrics.Metrics.mean_response_ratio) in
    let fairnesses = extract (fun r -> r.metrics.Metrics.fairness) in
    let n = Array.length first.dispatch_fractions in
    let fractions = Array.make n 0.0 in
    List.iter
      (fun r ->
        Array.iteri (fun i f -> fractions.(i) <- fractions.(i) +. f) r.dispatch_fractions)
      results;
    let reps = float_of_int (List.length results) in
    Array.iteri (fun i f -> fractions.(i) <- f /. reps) fractions;
    let jobs =
      List.fold_left (fun acc r -> acc +. float_of_int r.metrics.Metrics.jobs) 0.0 results
      /. reps
    in
    let avg f = List.fold_left (fun acc r -> acc +. f r) 0.0 results /. reps in
    (* Pool the per-replication distributions: identical layouts make the
       bucket-wise merge exact, so the pooled quantiles are what one big
       histogram over every measured job would have given. *)
    let rt_hist = Hdr.copy first.response_time_histogram in
    let rr_hist = Hdr.copy first.response_ratio_histogram in
    List.iter
      (fun r ->
        Hdr.merge ~into:rt_hist r.response_time_histogram;
        Hdr.merge ~into:rr_hist r.response_ratio_histogram)
      rest;
    {
      label = first.scheduler_name;
      mean_response_time = Stats.Confidence.of_samples times;
      mean_response_ratio = Stats.Confidence.of_samples ratios;
      fairness = Stats.Confidence.of_samples fairnesses;
      median_ratio = Hdr.quantile rr_hist 0.5;
      p99_ratio = Hdr.quantile rr_hist 0.99;
      response_time_histogram = rt_hist;
      response_ratio_histogram = rr_hist;
      dispatch_fractions = fractions;
      jobs_per_rep = jobs;
      availability = avg (fun r -> r.metrics.Metrics.availability);
      lost_jobs_per_rep = avg (fun r -> float_of_int r.metrics.Metrics.lost_jobs);
    }

let measure ?seed ?jobs ~scale spec =
  point_of_results (replicate ?seed ?jobs ~scale spec)

let measure_wall ?seed ?jobs ~scale spec =
  (* Wall-clock the replication batch (monotonic clock; the single
     schedlint-allowed wall-clock site) — the macro benchmark's
     reps-per-second / parallel-speedup probe. *)
  let started = Statsched_obs.Clock.now () in
  let point = measure ?seed ?jobs ~scale spec in
  (point, Statsched_obs.Clock.elapsed ~since:started)
