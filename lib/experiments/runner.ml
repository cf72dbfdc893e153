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

type comparison = {
  label_a : string;
  label_b : string;
  ratio_diff : Stats.Confidence.interval;
  relative_improvement : float;
  significant : bool;
}

let compare_paired ?seed ~scale ~a ~b ~speeds ~workload () =
  if scale.Config.reps < 2 then
    invalid_arg "Runner.compare_paired: need at least 2 replications";
  let results scheduler =
    replicate ?seed ~scale
      { speeds; workload; scheduler; discipline = Cluster.Simulation.Ps; faults = None }
  in
  let ra = results a and rb = results b in
  let ratio r =
    r.Cluster.Simulation.metrics.Metrics.mean_response_ratio
  in
  let diffs =
    Array.of_list (List.map2 (fun x y -> ratio x -. ratio y) ra rb)
  in
  let mean_of rs =
    List.fold_left (fun acc r -> acc +. ratio r) 0.0 rs
    /. float_of_int (List.length rs)
  in
  let interval = Stats.Confidence.of_samples diffs in
  let label_of = function
    | r :: _ -> r.Cluster.Simulation.scheduler_name
    | [] -> invalid_arg "Runner.compare_schedulers: no replications"
  in
  {
    label_a = label_of ra;
    label_b = label_of rb;
    ratio_diff = interval;
    relative_improvement = 1.0 -. (mean_of ra /. mean_of rb);
    significant =
      (let lo = Stats.Confidence.lower interval
       and hi = Stats.Confidence.upper interval in
       Float.is_finite lo && Float.is_finite hi && (hi < 0.0 || lo > 0.0));
  }

let pp_comparison fmt c =
  Format.fprintf fmt "%s vs %s: diff %a (%s), %.1f%% %s" c.label_a c.label_b
    Stats.Confidence.pp c.ratio_diff
    (if c.significant then "significant" else "not significant")
    (100.0 *. abs_float c.relative_improvement)
    (if c.relative_improvement > 0.0 then "better" else "worse")

let measure_to_precision ?(seed = Config.default_seed) ?(horizon = 4.0e5)
    ?(warmup = 1.0e5) ?(min_reps = 3) ?(max_reps = 30) ?jobs ~target spec =
  if target <= 0.0 then invalid_arg "Runner.measure_to_precision: target <= 0";
  if min_reps < 2 || min_reps > max_reps then
    invalid_arg "Runner.measure_to_precision: need 2 <= min_reps <= max_reps";
  let run = run_replication ~seed ~horizon ~warmup spec in
  let rec grow results k =
    let point = point_of_results (List.rev results) in
    let rhw = Stats.Confidence.relative_half_width point.mean_response_ratio in
    if (Float.is_finite rhw && rhw <= target) || k >= max_reps then point
    else grow (run k :: results) (k + 1)
  in
  (* The mandatory first [min_reps] replications can fan out; the
     sequential-stopping tail inspects the interval after every added
     replication, so it stays one-at-a-time (results are identical either
     way — replication [k] is a pure function of [k]). *)
  let initial = Par.map ?jobs min_reps run in
  grow (List.rev initial) min_reps

let measure_single_run ?(seed = Config.default_seed) ?(batch_size = 10_000) ~horizon
    ~warmup spec =
  let time_batches = Stats.Batch_means.create ~batch_size in
  let ratio_batches = Stats.Batch_means.create ~batch_size in
  let cfg =
    Cluster.Simulation.default_config ~discipline:spec.discipline ~horizon ~warmup
      ~seed ?faults:spec.faults ~speeds:spec.speeds ~workload:spec.workload
      ~scheduler:spec.scheduler ()
  in
  let module Job = Statsched_queueing.Job in
  let on_completion job =
    if job.Job.arrival >= warmup then begin
      Stats.Batch_means.add time_batches (Job.response_time job);
      Stats.Batch_means.add ratio_batches (Job.response_ratio job)
    end
  in
  let result = Cluster.Simulation.run ~on_completion cfg in
  if Stats.Batch_means.completed_batches time_batches < 2 then
    invalid_arg
      "Runner.measure_single_run: fewer than two completed batches; lengthen the \
       horizon or shrink batch_size";
  let open Cluster.Simulation in
  {
    label = result.scheduler_name;
    mean_response_time = Stats.Batch_means.interval time_batches;
    mean_response_ratio = Stats.Batch_means.interval ratio_batches;
    median_ratio = result.median_response_ratio;
    p99_ratio = result.p99_response_ratio;
    response_time_histogram = Hdr.copy result.response_time_histogram;
    response_ratio_histogram = Hdr.copy result.response_ratio_histogram;
    fairness =
      (* One replication: no width estimate.  [Confidence.pp] renders a
         nan half-width without the "±" term. *)
      {
        Stats.Confidence.mean = result.metrics.Metrics.fairness;
        half_width = nan;
        confidence = 0.95;
        replications = 1;
      };
    dispatch_fractions = result.dispatch_fractions;
    jobs_per_rep = float_of_int result.metrics.Metrics.jobs;
    availability = result.metrics.Metrics.availability;
    lost_jobs_per_rep = float_of_int result.metrics.Metrics.lost_jobs;
  }

let measure_wall ?seed ?jobs ~scale spec =
  (* Wall-clock the replication batch (monotonic clock; the single
     schedlint-allowed wall-clock site) — the macro benchmark's
     reps-per-second / parallel-speedup probe. *)
  let started = Statsched_obs.Clock.now () in
  let point = measure ?seed ?jobs ~scale spec in
  (point, Statsched_obs.Clock.elapsed ~since:started)
