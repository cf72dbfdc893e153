(** Workload models: an arrival process paired with a job-size
    distribution.

    The paper's simulation workload (Section 4.1): Bounded-Pareto job
    sizes B(10 s, 21600 s, 1.0) — mean 76.8 s — and two-stage
    hyperexponential inter-arrival times with coefficient of variation 3.
    The arrival rate is always derived from a target system utilisation,
    [λ = ρ·μ·Σ s_i] with [μ = 1 / mean job size].

    A workload may additionally carry a {e rate modulation} — a positive
    function of simulated time scaling the instantaneous arrival rate —
    to model non-stationary (e.g. diurnal) load.  Sampled gaps are divided
    by the modulation factor at the sampling instant, so the long-run
    average rate equals the base rate whenever the modulation averages
    to 1. *)

type t = {
  interarrival : Statsched_dist.Distribution.t;
      (** base inter-arrival time distribution *)
  size : Statsched_dist.Distribution.t;
  modulation : (float -> float) option;
      (** optional instantaneous arrival-rate factor, [f(t) > 0];
          [None] means stationary *)
}

val create :
  ?modulation:(float -> float) ->
  interarrival:Statsched_dist.Distribution.t ->
  size:Statsched_dist.Distribution.t ->
  unit ->
  t

val arrival_rate : t -> float
(** Base (time-average, for mean-1 modulations) arrival rate:
    [1 / mean inter-arrival time]. *)

val mu : t -> float
(** Base-line service rate, [1 / mean job size]. *)

val utilization : t -> speeds:float array -> float
(** Offered system utilisation [λ / (μ Σ s_i)] at the base rate. *)

val paper_default : rho:float -> speeds:float array -> t
(** The Section 4.1 workload at target utilisation [rho]: BP(10,21600,1)
    sizes, H₂(CV=3) arrivals with rate [ρ·Σs / 76.8…].

    @raise Invalid_argument unless [0 < rho < 1]. *)

val poisson_exponential : rho:float -> mean_size:float -> speeds:float array -> t
(** The analytically tractable M/M workload used to validate the simulator
    against {!Statsched_core.Mm1}: Poisson arrivals, Exp sizes of the
    given mean. *)

val with_cv : rho:float -> arrival_cv:float -> speeds:float array -> t
(** Paper sizes but an arrival process of the given CV: hyperexponential
    for [cv > 1], Poisson for [cv = 1], Erlang for [cv < 1].  Used by the
    burstiness-sensitivity experiments. *)

val with_size :
  rho:float ->
  ?arrival_cv:float ->
  size:Statsched_dist.Distribution.t ->
  float array ->
  t
(** [with_size ~rho ~size speeds]: arbitrary job-size distribution with
    the arrival rate derived from its mean to hit utilisation [rho];
    arrival CV defaults to the paper's 3.  Used by the size-distribution
    sensitivity experiments (PS insensitivity check). *)

val diurnal :
  rho:float ->
  amplitude:float ->
  day_length:float ->
  speeds:float array ->
  t
(** Non-stationary variant of {!paper_default}: the instantaneous arrival
    rate is modulated by [1 + amplitude·sin(2πt/day_length)], so the load
    swings between [(1−a)·ρ] and [(1+a)·ρ] with mean [ρ].  Used by the
    robustness extension experiment (static allocations are computed for
    the {e mean} load; how badly do the swings hurt?).

    @raise Invalid_argument unless [0 <= amplitude < 1], [day_length > 0]
    and the peak load stays below saturation
    ([(1 + amplitude)·rho < 1]). *)

val modulated_rate : t -> float -> float
(** [modulated_rate w t] is the instantaneous arrival rate at simulated
    time [t] ([arrival_rate w] when unmodulated). *)

(** {2 Batched draws}

    The simulator's arrival loop reads inter-arrival gaps and job sizes
    through two sources, which pre-sample them a batch at a time into a
    flat float array, each from its own dedicated stream.  The draws
    come from the same stream in the same order as one-at-a-time
    sampling, so simulation results are bit-identical; batching only
    removes the per-draw closure call and boxed return.  Gaps are
    {e base} gaps: rate modulation is applied by the consumer at the
    scheduling instant. *)

type source

val gap_source : ?batch:int -> t -> rng:Statsched_prng.Rng.t -> source
(** A fresh source drawing from [t.interarrival] with the given stream.
    [batch] (default 256) draws are pre-sampled per refill.

    @raise Invalid_argument if [batch < 1]. *)

val size_source : t -> rng:Statsched_prng.Rng.t -> source
(** The same for [t.size], with the default batch. *)

val next : source -> float
(** The next draw: a base gap or a size.  Inlined, so it stays
    unboxed. *)

val next_gap : source -> float
(** {!next}, read from a gap source. *)
