(** A simulator configuration in serialisable form.

    Every simcheck component — differential oracles, metamorphic
    relations, the config fuzzer — describes the run it is about to make
    as a [Scenario.t], and every failure report prints the scenario back
    as a replayable [schedsim run] command line ({!to_run_command}), so a
    counterexample found in CI can be reproduced at the shell with no
    simcheck machinery at all.

    The string round-trips for disciplines and size distributions here
    are the single source of truth shared with the [schedsim] CLI;
    scheduler names go through {!Statsched_cluster.Scheduler.of_name},
    the parser the CLI and the daemon use too. *)

(** {1 Schedulers} *)

val scheduler_of_name : ?d:int -> string -> Statsched_cluster.Scheduler.kind
(** {!Statsched_cluster.Scheduler.of_name}, raising on failure.  [d]
    (default 2) is the sample size of [jsq-d] and [two-choices]; ignored
    by every other scheduler.

    @raise Invalid_argument on a name outside
    {!Statsched_cluster.Scheduler.names} or [d < 1]. *)

(** {1 Disciplines} *)

val discipline_to_string : Statsched_cluster.Simulation.discipline -> string
(** ["ps"], ["fcfs"], ["srpt"] or ["rr:Q"]. *)

val discipline_of_string : string -> Statsched_cluster.Simulation.discipline option

(** {1 Size distributions} *)

type size_dist =
  | Exp
  | Bp_paper  (** the paper's BP(10, 21600, 1), mean 76.8 s — ignores [mean_size] *)
  | Weibull of float  (** shape [k > 0] *)
  | Lognormal of float  (** coefficient of variation *)
  | Erlang of int  (** stages [k >= 1] *)
  | Hyperexp of float  (** coefficient of variation [>= 1] *)
  | Det  (** deterministic *)

val size_dist_to_string : size_dist -> string
(** ["exp"], ["bp"], ["weibull:K"], ["lognormal:CV"], ["erlang:K"],
    ["hyperexp:CV"], ["det"]. *)

val size_dist_of_string : string -> size_dist option
(** Inverse of {!size_dist_to_string}; [None] on an unknown tag or an
    out-of-domain parameter. *)

val size_distribution : mean:float -> size_dist -> Statsched_dist.Distribution.t
(** Concrete distribution scaled to the requested mean ({!Bp_paper}
    keeps its own 76.8 s mean). *)

(** {1 Scenarios} *)

type faults = {
  mtbf : float;
  mttr : float;
  on_failure : Statsched_cluster.Fault.on_failure;
}

type t = {
  speeds : float array;
  rho : float;  (** target offered utilisation, in (0,1) *)
  policy : string;  (** a {!Statsched_cluster.Scheduler.names} entry *)
  d : int;  (** sample size for jsq-d / two-choices; ignored otherwise *)
  discipline : Statsched_cluster.Simulation.discipline;
  arrival_cv : float;  (** arrival-process CV; 1 = Poisson *)
  size : size_dist;
  mean_size : float;
  faults : faults option;
  seed : int64;
}

val v :
  ?discipline:Statsched_cluster.Simulation.discipline ->
  ?arrival_cv:float ->
  ?size:size_dist ->
  ?mean_size:float ->
  ?faults:faults ->
  ?seed:int64 ->
  ?d:int ->
  speeds:float array ->
  rho:float ->
  policy:string ->
  unit ->
  t
(** Defaults: [Ps], Poisson arrivals, Exp sizes of mean 1, no faults,
    seed 1, [d = 2] — the analytically tractable M/M baseline. *)

val workload : t -> Statsched_cluster.Workload.t

val fault_plan : t -> Statsched_cluster.Fault.plan option

val spec : t -> Statsched_experiments.Runner.spec
(** The {!Statsched_experiments.Runner} spec this scenario denotes.

    @raise Invalid_argument on an out-of-domain scenario (bad rho,
    speeds, policy name…). *)

val to_run_command :
  ?scale:Statsched_experiments.Config.scale ->
  ?horizon:float ->
  ?warmup:float ->
  t ->
  string
(** A [schedsim run] command line replaying this scenario (with
    [--sanitize] so the runtime invariant checkers watch the replay).
    [horizon]/[warmup] emit explicit [--horizon]/[--warmup] overrides —
    the fuzzer uses these so its tiny-horizon counterexamples replay
    exactly. *)

val pp : Format.formatter -> t -> unit
(** {!to_run_command} without a scale. *)
