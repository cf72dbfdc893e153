(** End-to-end cluster simulation (Section 4.1's model).

    A central scheduler receives the whole arrival stream and forwards
    each job to one of [n] computers; jobs then run to completion without
    rescheduling.  Program/data files live on a dedicated file server, so
    dispatching itself is instantaneous (only a command line travels).
    Each computer time-shares its processor ({!Statsched_queueing.Ps_server}
    by default).

    One call to {!run} is one independent replication: all stochastic
    inputs are drawn from non-overlapping substreams of a single seed, so
    result [k] of replication [k] is reproducible and replications are
    statistically independent. *)

(** A computer's service discipline: [Ps] runs on
    {!Statsched_queueing.Ps_server}, the other three on
    {!Statsched_queueing.Serial_server}. *)
type discipline =
  | Ps  (** processor sharing — the paper's model; default *)
  | Rr of float  (** quantum round-robin with the given quantum (validation) *)
  | Fcfs  (** first-come-first-served (contrast experiments) *)
  | Srpt  (** shortest-remaining-processing-time (size-aware contrast) *)

type config = {
  speeds : float array;
  workload : Workload.t;
  scheduler : Scheduler.kind;
  discipline : discipline;
  horizon : float;  (** total simulated seconds; paper: 4·10⁶ *)
  warmup : float;  (** start-up period excluded from statistics; paper: 10⁶ *)
  seed : int64;
  replication : int;  (** replication index selecting the RNG substream *)
  faults : Fault.plan option;
      (** computer failure/recovery processes injected during the run;
          [None] (or a plan with no processes) reproduces the fault-free
          simulator bit for bit under the same seed *)
}

val default_config :
  ?discipline:discipline ->
  ?horizon:float ->
  ?warmup:float ->
  ?seed:int64 ->
  ?replication:int ->
  ?faults:Fault.plan ->
  speeds:float array ->
  workload:Workload.t ->
  scheduler:Scheduler.kind ->
  unit ->
  config
(** Defaults: [Ps], horizon 4·10⁵ s, warmup = horizon/4, seed 42,
    replication 0, no faults.  (The paper-scale horizon of 4·10⁶ s is
    available as {!paper_horizon}.) *)

val paper_horizon : float
(** 4·10⁶ simulated seconds. *)

val paper_warmup : float
(** 10⁶ simulated seconds — the first quarter of the run. *)

type per_computer = {
  speed : float;
  dispatched : int;  (** jobs sent to this computer after warm-up *)
  completed : int;  (** jobs finished here after warm-up *)
  utilization : float;  (** busy fraction after warm-up *)
  mean_jobs : float;
      (** time-averaged number of jobs present after warm-up — Little's
          [L]; the tests verify [L ≈ λᵢ·Wᵢ] *)
}

type result = {
  scheduler_name : string;
  metrics : Statsched_core.Metrics.t;
  median_response_ratio : float;
      (** [Hdr_histogram.quantile response_ratio_histogram 0.5]: within
          one bucket (at most 1/32 ~ 3.1 % of the value) of the exact
          median of the measured ratios *)
  p99_response_ratio : float;
      (** [Hdr_histogram.quantile response_ratio_histogram 0.99] *)
  response_time_histogram : Statsched_obs.Hdr_histogram.t;
      (** full response-time distribution of the measurement window
          (~3 % relative resolution); layouts are identical across runs,
          so per-replication histograms merge exactly with
          {!Statsched_obs.Hdr_histogram.merge} *)
  response_ratio_histogram : Statsched_obs.Hdr_histogram.t;
      (** same, for the response {e ratio} (response time x speed/size) *)
  per_computer : per_computer array;
  dispatch_fractions : float array;
      (** per-computer share of post-warm-up dispatches *)
  intended_fractions : float array option;
      (** the allocation a static policy aimed for; [None] for Least-Load *)
  offered_utilization : float;  (** λ/(μ·Σs) of the workload *)
  total_arrivals : int;  (** arrivals over the whole run, warm-up included *)
  events_executed : int;
  heap_high_water : int;
      (** largest number of events simultaneously pending in the engine's
          future-event list over the run (self-profiling) *)
  fault_summary : Fault.summary option;
      (** reliability accounting over the measurement window; [None] when
          the run had no fault plan (so fault-free output is unchanged) *)
}

type progress = {
  sim_time : float;
  arrivals : int;  (** total arrivals so far, warm-up included *)
  completions : int;  (** total completions so far, warm-up included *)
  measured : int;  (** completions inside the measurement window *)
  events : int;  (** engine events executed so far *)
}
(** Snapshot passed to the [on_progress] observer. *)

val run :
  ?sanitize:bool ->
  ?hooks_retain_jobs:bool ->
  ?metric_histograms:
    Statsched_obs.Hdr_histogram.t * Statsched_obs.Hdr_histogram.t ->
  ?on_engine:(Statsched_des.Engine.t -> unit) ->
  ?on_dispatch:(Statsched_queueing.Job.t -> unit) ->
  ?on_completion:(Statsched_queueing.Job.t -> unit) ->
  ?on_tick:float * (time:float -> queues:int array -> unit) ->
  ?on_drop:(Statsched_queueing.Job.t -> unit) ->
  ?on_rate_change:(time:float -> computer:int -> rate:float -> unit) ->
  ?on_progress:float * (progress -> unit) ->
  config ->
  result
(** Execute one replication.  [on_dispatch] observes every dispatch
    decision as it is made (warm-up included; the job's [computer] field
    is already set) — Figure 2's interval statistics and {!Telemetry}'s
    journal hook in here.  [on_completion] observes every job departure.
    [on_tick (period, f)] calls [f] every [period] simulated seconds with
    the instantaneous per-computer run-queue lengths — {!Probe} plugs in
    here.

    [on_drop] observes each in-service job discarded by a [Fault.Drop]
    failure.  [on_rate_change] observes every effective-rate change a
    fault plan applies (rate 0 = down, 1 = nominal).  [on_progress
    (period, f)] calls [f] every [period] simulated seconds with run
    counters — the CLI's [--stats-interval] heartbeat plugs in here.

    [metric_histograms ((rt, rr))] hands the run's {!Collector} existing
    response-time/response-ratio histograms (canonical layouts) to
    accumulate into instead of fresh ones — {!Telemetry.histograms}
    plugs in here so a live [/metrics] scrape reads the collector's own
    tail distributions with no duplicate per-completion update.

    All observers are passive: none draws random numbers, so metrics and
    completion order are bit-identical with or without them ([on_tick] /
    [on_progress] do add their own periodic events to the count
    {!result.events_executed} reports).

    The simulator keeps its jobs in a flat per-run
    {!Statsched_queueing.Job_store}, so with no job hook installed the
    arrival → dispatch → service → departure cycle allocates nothing
    (a PS or serial server, the static and Least-Load policies, the
    collector).  A {!Statsched_queueing.Job.t} record exists only for
    the job hooks: one record per job, made from the store at dispatch
    and brought up to date from it only at completion or drop.  The
    record [on_completion] (or [on_drop]) receives is the one
    [on_dispatch] received, now showing the job's [start], [completion]
    and final [computer].  Between those points the record is not
    refreshed: read mid-run (from [on_tick], say) it shows [start = -1]
    and its dispatch-time [computer] even after service has begun or a
    fault has requeued it, and a job still in the system when the run
    ends keeps them.

    [hooks_retain_jobs] (default [true]) declares whether the job hooks
    may retain a record past the callback.  With the default, each job
    gets a fresh record, which stays valid, and complete, after the job
    has left.  Hooks that only copy fields out synchronously — every
    observer in this library — may pass [false]: each store slot then
    owns one record, refilled for every job the slot holds, so the hooks
    add no per-job record.  Either way the simulated trajectory is
    bit-identical.

    [on_engine] is called once with the freshly created DES engine
    before any event is scheduled — the live telemetry server captures
    it to poll {!Statsched_des.Engine.snapshot} from its serving thread.
    It must not schedule events or otherwise perturb the engine.

    [sanitize] turns on the runtime invariant checkers of {!Sanitize}
    (clock monotonicity, event-heap order, job conservation, allocation
    feasibility); it defaults to {!Sanitize.enabled_from_env}, i.e. the
    [STATSCHED_SANITIZE] environment variable.  Sanitized runs are
    bit-identical to unsanitized ones under the same seed.

    @raise Invalid_argument on an infeasible configuration (e.g. offered
    utilisation ≥ 1 with an optimized allocation, or no job completing
    within the measurement window).
    @raise Sanitize.Violation when sanitizing and an invariant breaks. *)

(** A resumable virtual-clock driver: {!run} unrolled into
    [create] / [advance] / [finalize] so a caller — the [schedsimd]
    daemon — can drive simulated time incrementally, inject externally
    arriving jobs, and hot-swap the scheduling policy mid-run.

    [run cfg] is literally
    [finalize (advance ~to_:cfg.horizon (create cfg))]: a one-shot run
    and a driver advanced in any number of monotone steps execute the
    identical event sequence and draw the identical random streams, so
    their results are bit-for-bit equal under the same seed (pinned by
    simcheck and the test suite). *)
module Driver : sig
  type t

  val create :
    ?sanitize:bool ->
    ?hooks_retain_jobs:bool ->
    ?metric_histograms:
      Statsched_obs.Hdr_histogram.t * Statsched_obs.Hdr_histogram.t ->
    ?on_engine:(Statsched_des.Engine.t -> unit) ->
    ?on_dispatch:(Statsched_queueing.Job.t -> unit) ->
    ?on_completion:(Statsched_queueing.Job.t -> unit) ->
    ?on_tick:float * (time:float -> queues:int array -> unit) ->
    ?on_drop:(Statsched_queueing.Job.t -> unit) ->
    ?on_rate_change:(time:float -> computer:int -> rate:float -> unit) ->
    ?on_progress:float * (progress -> unit) ->
    ?arrivals:[ `Workload | `External ] ->
    config ->
    t
  (** Build a paused simulation at time 0.  The optional observers have
      exactly {!run}'s semantics.  [arrivals] selects where jobs come
      from: [`Workload] (default) schedules the configured arrival
      process just as {!run} does; [`External] schedules none — every
      job enters through {!submit}, which is the daemon's mode.
      Validation and failure modes are {!run}'s. *)

  val advance : t -> to_:float -> unit
  (** Execute all events with timestamp ≤ [to_] and move the clock to
      [to_].  Monotone: a [to_] at or before the current clock is a
      no-op, never an error, so wall-clock-driven callers can call it
      unconditionally.  @raise Invalid_argument on NaN or after
      {!finalize}. *)

  val submit : t -> size:float -> int
  (** Inject one arriving job of the given service demand at the current
      clock and return the computer the live policy dispatched it to.
      Counts, hooks and RNG draws are exactly those of an internal
      arrival: a recorded arrival trace replayed through [`External]
      reproduces the batch run's dispatch decisions bit for bit.
      @raise Invalid_argument if [size <= 0] (NaN included) or after
      {!finalize}. *)

  val set_scheduler : t -> Scheduler.kind -> unit
  (** Hot-swap the scheduling policy without disturbing in-flight jobs:
      re-runs the policy's construction (for [Static Optimized] that is
      Algorithm 1) at the configured offered load, seeds the new
      scheduler state from the servers' live queue lengths, and replays
      the current blacklist if a fault plan announced one.  Jobs already
      dispatched stay where they are.  The RNG streams continue — swaps
      are not replayable-neutral.  A policy whose construction fails
      (e.g. an infeasible static allocation under sanitizers) raises and
      leaves the previous policy in place.  Swapping away from a
      [Stale_least_load] or [Adaptive] policy stops its periodic
      refresh event. *)

  val scheduler : t -> Scheduler.kind
  (** The currently installed policy. *)

  val config : t -> config
  val now : t -> float
  (** Current virtual time. *)

  val arrivals : t -> int
  val completions : t -> int
  val measured : t -> int
  (** Completions inside the measurement window so far. *)

  val in_system : t -> int
  (** Jobs dispatched but not yet completed (nor dropped) — the daemon's
      backlog gauge. *)

  val drain : t -> unit
  (** Step the engine until no job remains in the system, however far
      that moves the clock.  Terminates even with self-rescheduling
      periodic activities pending (it steps, rather than running the
      queue dry). *)

  val finalize : t -> result
  (** Assemble the result exactly as {!run} does, with the measurement
      window ending at the current clock.  The driver is dead
      afterwards: every further operation raises.
      @raise Invalid_argument if no job completed within the
      measurement window. *)
end
