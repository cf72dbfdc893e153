(** Replication driver: one data point = several independent runs.

    Replication [k] uses RNG substream [k] of the experiment seed, so the
    runs are independent yet the whole experiment is reproducible from a
    single seed — and common random numbers hold across schedulers
    (scheduler A and B see the same arrival/size streams in replication
    [k]), which sharpens the comparisons exactly as in the paper. *)

type spec = {
  speeds : float array;
  workload : Statsched_cluster.Workload.t;
  scheduler : Statsched_cluster.Scheduler.kind;
  discipline : Statsched_cluster.Simulation.discipline;
  faults : Statsched_cluster.Fault.plan option;
      (** fault plan injected into every replication; [None] = reliable
          cluster *)
}

val make_spec :
  ?discipline:Statsched_cluster.Simulation.discipline ->
  ?faults:Statsched_cluster.Fault.plan ->
  speeds:float array ->
  workload:Statsched_cluster.Workload.t ->
  scheduler:Statsched_cluster.Scheduler.kind ->
  unit ->
  spec

type point = {
  label : string;  (** scheduler name *)
  mean_response_time : Statsched_stats.Confidence.interval;
  mean_response_ratio : Statsched_stats.Confidence.interval;
  fairness : Statsched_stats.Confidence.interval;
  median_ratio : float;
      (** median of [response_ratio_histogram]: the quantile of every
          measured job of every replication at once *)
  p99_ratio : float;  (** p99 of [response_ratio_histogram] *)
  response_time_histogram : Statsched_obs.Hdr_histogram.t;
      (** per-replication response-time histograms pooled with the exact
          bucket-wise merge (identical layouts across replications) *)
  response_ratio_histogram : Statsched_obs.Hdr_histogram.t;
      (** same, for the response ratio *)
  dispatch_fractions : float array;  (** averaged over replications *)
  jobs_per_rep : float;
  availability : float;
      (** replication average of the capacity-weighted availability;
          [1.0] without a fault plan *)
  lost_jobs_per_rep : float;
      (** replication average of jobs lost to crashes ([Drop] policy) *)
}

val replicate :
  ?seed:int64 ->
  ?jobs:int ->
  scale:Config.scale ->
  spec ->
  Statsched_cluster.Simulation.result list
(** Run [scale.reps] independent replications, fanned out over [jobs]
    OCaml 5 domains ({!Statsched_par.Par.map}; default [jobs] is the
    [STATSCHED_JOBS] environment variable or the recommended domain
    count; [~jobs:1] runs in the calling domain).  Each replication is
    fully self-contained — engine, servers and RNG substreams are created
    inside the call — so the result list is {e bitwise identical} for
    every [jobs] (a test asserts this across schedulers, disciplines and
    fault plans), just faster on multicore.

    @raise Invalid_argument if [jobs < 1]. *)

val point_of_results : Statsched_cluster.Simulation.result list -> point
(** Aggregate replication results into a data point with 95 % Student-t
    confidence intervals; the per-replication HDR histograms are pooled
    with the exact bucket-wise merge.

    @raise Invalid_argument on an empty list. *)

val measure : ?seed:int64 -> ?jobs:int -> scale:Config.scale -> spec -> point
(** [point_of_results (replicate ~scale spec)]. *)

val measure_wall :
  ?seed:int64 -> ?jobs:int -> scale:Config.scale -> spec -> point * float
(** {!measure} plus the wall-clock seconds the replication batch took
    (monotonic instrumentation clock) — the macro benchmark's
    reps-per-second probe. *)
