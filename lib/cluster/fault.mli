(** Fault-injection plans for the cluster simulator.

    Each computer can be driven by one or more {e failure processes}: an
    alternating renewal process drawn from {!Statsched_dist} distributions
    — an {e uptime} (time from recovery to the next event onset) followed
    by a {e downtime} (event duration).  An event either takes the
    computer down completely ([degrade = 0], a crash) or runs it at a
    fraction of its nominal speed ([0 < degrade < 1], a transient
    slowdown — CPU contention, thermal throttling, a noisy neighbour).

    Exponential uptimes/downtimes give the classic MTBF/MTTR model;
    {!Statsched_dist.Deterministic} gives periodic maintenance windows,
    and any trace can be replayed through
    {!Statsched_dist.Distribution.make} (trace-driven faults).

    What happens to jobs that are on the failed computer is the plan's
    {!on_failure} policy; how the {e scheduler} reacts is its
    {!reaction}.  Overlapping events on one computer compose by
    multiplying their degrade factors (any crash wins). *)

type on_failure =
  | Drop  (** in-flight jobs are lost (counted in {!Statsched_core.Metrics.t.lost_jobs}) *)
  | Requeue
      (** in-flight jobs go back to the central dispatcher and restart
          from scratch on the computer it picks (no checkpointing) *)
  | Resume  (** jobs stay queued and resume when the computer recovers *)

type reaction =
  | Oblivious  (** the scheduler keeps dispatching as if nothing happened *)
  | Blacklist
      (** static policies re-run Algorithm 1 over the surviving
          (effective-speed) sub-vector and dispatch over it; Least-Load
          variants mask failed computers out of their argmin *)

type process = {
  computers : int list option;  (** [None] = every computer *)
  uptime : Statsched_dist.Distribution.t;
  downtime : Statsched_dist.Distribution.t;
  degrade : float;  (** speed multiplier during the event; [0] = outage *)
}

type plan = {
  processes : process list;
  on_failure : on_failure;
  reaction : reaction;
}

type summary = {
  availability : float;
      (** capacity-weighted fraction of the measurement window the
          cluster was available: [1 − Σᵢ sᵢ·lostᵢ / (window·Σᵢ sᵢ)]
          where [lostᵢ] integrates [1 − rateᵢ(t)] *)
  failures : int;  (** number of up→down transitions over the whole run *)
  lost_jobs : int;  (** jobs dropped after warm-up (policy {!Drop}) *)
  downtime : float array;
      (** per-computer seconds of lost capacity (time-integral of
          [1 − rate]) inside the measurement window *)
}

val process :
  ?computers:int list ->
  ?degrade:float ->
  uptime:Statsched_dist.Distribution.t ->
  downtime:Statsched_dist.Distribution.t ->
  unit ->
  process
(** General constructor; [degrade] defaults to [0] (crash).

    @raise Invalid_argument if [degrade] is outside [0,1), a mean is
    non-positive, or the computer list is empty/negative. *)

val crashes : ?computers:int list -> mtbf:float -> mttr:float -> unit -> process
(** Exponential failures: up for [Exp(mtbf)], down for [Exp(mttr)]. *)

val periodic :
  ?computers:int list -> ?degrade:float -> every:float -> duration:float -> unit -> process
(** Deterministic maintenance window: up [every] s, down [duration] s. *)

val plan : ?on_failure:on_failure -> ?reaction:reaction -> process list -> plan
(** Defaults: [Requeue], [Blacklist]. *)

val exponential :
  ?computers:int list ->
  ?on_failure:on_failure ->
  ?reaction:reaction ->
  mtbf:float ->
  mttr:float ->
  unit ->
  plan
(** One-liner for the CLI: a single {!crashes} process on all computers. *)

val none : plan
(** The empty plan — a simulation with [Some none] is bit-identical to
    one with no plan at all. *)

val is_none : plan -> bool

val validate : n:int -> plan -> unit
(** Check all computer indices against the cluster size.

    @raise Invalid_argument on an out-of-range index. *)

val on_failure_name : on_failure -> string
val on_failure_of_string : string -> on_failure option
