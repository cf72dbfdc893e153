(** Scheduler specifications for a simulation run.

    Either a static policy from the Table 2 matrix (optionally one of the
    ablation dispatch variants) or the Dynamic Least-Load baseline with
    its measurement/propagation delays (Section 4.2). *)

type kind =
  | Static of Statsched_core.Policy.t
      (** Allocation + dispatching, computed once from ρ and the speeds. *)
  | Static_custom of {
      label : string;
      make : rho:float -> speeds:float array -> rng:Statsched_prng.Rng.t ->
        Statsched_core.Dispatch.t;
    }
      (** Escape hatch for ablation dispatchers (no-guard round-robin,
          smooth WRR, …): build any dispatcher from the run parameters. *)
  | Least_load of {
      detection : Statsched_dist.Distribution.t;
          (** time for a computer to notice a departure; paper: U(0,1) s *)
      message_delay : Statsched_dist.Distribution.t;
          (** network delay of the load-update message; paper: Exp(mean 0.05 s) *)
      random_ties : bool;  (** break ties uniformly at random *)
      probe : int option;
          (** [Some d]: power-of-d-choices — probe only [d] random
              computers per decision; [None]: the paper's full Least-Load *)
    }

  | Sita of {
      params : Statsched_dist.Bounded_pareto.params;
          (** the size distribution the cutoffs are computed for *)
      small_to : [ `Fast | `Slow ];
    }
      (** SITA-E (Crovella et al., the paper's reference [5]): dedicate
          each computer to a contiguous job-size band with equal-load
          cutoffs.  {e Size-aware}: the dispatcher inspects each job's
          size, the knowledge the paper's static policies deliberately do
          without.  Cutoffs are built for the run's speed vector when the
          simulation starts. *)
  | Stale_least_load of {
      poll_period : float;
          (** seconds between polls that refresh the scheduler's view of
              every run-queue length *)
      count_in_flight : bool;
          (** whether the scheduler still increments its view on each
              dispatch between polls (mitigates herding); the classic
              stale-information pathology appears with [false] *)
    }
      (** Least-Load driven by periodically polled load information
          instead of per-event updates (Mitzenmacher's "useful-ness of
          old information" setting).  With a large [poll_period] every
          arrival in a window herds onto the computer that looked
          emptiest at the last poll — the ablation bench shows where
          static ORR overtakes it. *)
  | Jsq of { d : int; weighted : bool }
      (** Join-the-Shortest-Queue over [d] sampled computers
          (power-of-d-choices) with {e synchronous exact} queue
          information: departures update the scheduler's view
          immediately, no detection/message-delay events are scheduled.
          The many-server scaling baseline — O(d) work and zero
          allocation per decision, O(log n) with [d >= n] (the
          tournament-tree full-information case).  Contrast with
          {!Least_load}[{probe = Some d}], which models the paper's
          update lag.

          [weighted] (the default) draws the [d] probes speed-weighted
          via Walker's alias table and breaks exact load ties toward
          the faster computer — on heterogeneous clusters uniform
          probes mostly see the slow majority, which is what produced
          the ≈53 response ratio at n = 10² flagged in ROADMAP.md.
          [weighted = false] keeps the original uniform sampler
          (scenario name ["jsq-d-uniform"]) so old recorded runs stay
          replayable. *)
  | Jiq
      (** Join-Idle-Queue (see {!Statsched_core.Jiq}): idle computers
          report themselves, a decision pops the fastest idle stack in
          O(1) and falls back to speed-weighted random (alias table)
          when nothing is idle.  Synchronous updates, like {!Jsq}. *)
  | Adaptive of {
      period : float;
          (** seconds between re-estimations of ρ and recomputations of
              the optimized allocation *)
      initial_rho : float;
          (** utilisation assumed before the first re-estimation *)
      safety : float;
          (** multiplicative inflation of the estimate (the paper's
              Section 5.4 advice: "conservatively overestimate system
              load slightly"); 1.05 ≈ +5 % *)
      windowed : bool;
          (** [false] (default): cumulative averages since the start of
              the run — the paper's "long-run average is sufficient"
              regime.  [true]: estimate from the most recent period only,
              which tracks non-stationary (diurnal) load at the price of
              noisier estimates. *)
      dispatching : Statsched_core.Policy.dispatch_strategy;
    }
      (** Self-tuning ORR: estimates λ and the mean job size from the
          stream it has seen since the start of the run (cumulative
          averages — Section 5.4 argues long-run averages suffice) and
          periodically recomputes Algorithm 1.  No oracle knowledge of
          the offered load. *)

val static : Statsched_core.Policy.t -> kind

val adaptive_orr :
  ?period:float -> ?initial_rho:float -> ?safety:float -> ?windowed:bool -> unit -> kind
(** Adaptive ORR with defaults: recompute every 10 000 s, start from
    ρ̂ = 0.5, +5 % safety margin, cumulative estimator. *)

val stale_least_load : ?count_in_flight:bool -> poll_period:float -> unit -> kind
(** Least-Load on polled information (default [count_in_flight = true]).

    @raise Invalid_argument if [poll_period <= 0]. *)

val sita_paper : ?small_to:[ `Fast | `Slow ] -> unit -> kind
(** SITA-E for the paper's Bounded-Pareto job sizes (default
    [`Small_to:`Fast], which favours the mean response ratio). *)

val least_load_paper : kind
(** Least-Load with the paper's delays: detection U(0,1) s, message delay
    exponential with mean 0.05 s, random tie-breaking. *)

val least_load_instant : kind
(** Idealised Least-Load with zero-delay departure updates — an upper
    bound used in ablation benches to price the update latency. *)

val jsq : ?d:int -> ?weighted:bool -> unit -> kind
(** JSQ(d) with synchronous queue information (default [d = 2],
    speed-weighted probing; [~weighted:false] restores the uniform
    sampler for replay).

    @raise Invalid_argument if [d < 1]. *)

val jiq : kind
(** Join-Idle-Queue with synchronous idle reporting. *)

val two_choices : ?d:int -> unit -> kind
(** Power-of-d-choices (default [d = 2]) with the paper's update delays —
    a partial-information dynamic baseline between the static policies and
    full Least-Load. *)

val name : kind -> string

val names : string list
(** The policy vocabulary shared by the [schedsim] CLI, the [schedsimd]
    daemon and simcheck scenarios, in menu order: wran, oran, wrr, orr,
    least-load, two-choices, adaptive-orr, sita, jsq-d, jsq-d-uniform,
    jiq. *)

val of_name : ?d:int -> string -> (kind, string) result
(** Parse a {!names} entry, optionally with a [:d] probe-count suffix
    (["jsq-d:4"]).  The probe count — the suffix, else [d] (default 2) —
    is the sample size of [jsq-d], [jsq-d-uniform] and [two-choices] and
    is ignored by every other policy.  [Error] carries a human-readable
    reason (an unknown name lists the vocabulary).

    @raise Invalid_argument if [d < 1] for a sampling policy. *)
