(** Metric collection for a simulation run.

    Accumulates the paper's three job metrics over completions whose
    arrival falls inside the measurement window (jobs arriving during
    warm-up are excluded even if they complete later, matching
    Section 4.1): the means and fairness in O(1) space via
    {!Statsched_stats.Welford}, and the response time and ratio
    distributions in bounded-size {!Statsched_obs.Hdr_histogram}s, which
    are the one source of every reported quantile.  At the default
    [sub_count] of 32 each histogram bucket is at most 1/32 (~3.1 %) of
    its values wide, and {!Statsched_obs.Hdr_histogram.quantile}
    interpolates to within one bucket of the exact quantile. *)

type t

val create :
  ?rt_hist:Statsched_obs.Hdr_histogram.t ->
  ?rr_hist:Statsched_obs.Hdr_histogram.t ->
  warmup:float ->
  unit ->
  t
(** Count only jobs with [arrival >= warmup].

    [rt_hist]/[rr_hist] supply existing histograms for the collector to
    accumulate into instead of creating its own — {!Telemetry} passes
    its registered exporter histograms here so live scrapes read the
    very objects the run metrics derive from, without a second
    per-completion update.  They must use the canonical layouts
    (response time [1e-3, 1e7), ratio [1e-3, 1e5), default sub_count).

    @raise Invalid_argument if a supplied histogram's layout differs. *)

val record : t -> arrival:float -> completion:float -> size:float -> unit
(** Feed one completed job by its fields: response time
    [completion − arrival], response ratio [response time / size].
    Inlined and allocation-free. *)

val on_departure : t -> Statsched_queueing.Job.t -> unit
(** {!record} of a completed job's record.

    @raise Invalid_argument if the job arrived after the warm-up and
    has not completed. *)

val jobs_measured : t -> int

val metrics :
  ?availability:float ->
  ?goodput:float ->
  ?lost_jobs:int ->
  t ->
  (Statsched_core.Metrics.t, [ `No_jobs_measured ]) result
(** Snapshot of the accumulated metrics.  The reliability fields default
    to a fault-free run ([availability = 1], [lost_jobs = 0], goodput
    unknown); {!Simulation} overrides them from its fault bookkeeping.

    Returns [Error `No_jobs_measured] when no completion fell inside the
    measurement window (e.g. the warm-up swallowed the whole horizon) —
    callers should surface a clear message rather than divide by zero. *)

val response_time_histogram : t -> Statsched_obs.Hdr_histogram.t
(** Log-linear histogram of measured response times (seconds). *)

val response_ratio_histogram : t -> Statsched_obs.Hdr_histogram.t
(** Log-linear histogram of measured response ratios. *)
