(** The paper's performance metrics (Sections 2.3 and 4.1).

    - {e mean response time}: average job completion time minus arrival time;
    - {e mean response ratio}: average of response time / job size;
    - {e fairness}: the standard deviation of the response ratio over all
      jobs — smaller is better (small jobs should not be starved by large
      ones);
    - {e workload allocation deviation} (Figure 2): Σ (α_i − α'_i)² between
      the intended fractions and the fractions actually dispatched in an
      interval. *)

type t = {
  mean_response_time : float;
  mean_response_ratio : float;
  fairness : float;  (** population std of the response ratio *)
  jobs : int;  (** number of completed jobs measured *)
  availability : float;
      (** capacity-weighted fraction of the measurement window during
          which the cluster's processing capacity was actually on line —
          [1.0] for a fault-free run *)
  goodput : float;
      (** completed jobs per unit time over the measurement window (jobs
          lost to crashes never complete, so goodput falls with them) *)
  lost_jobs : int;
      (** jobs permanently lost to computer crashes (only the [Drop]
          failure policy loses jobs; requeue/resume preserve them) *)
}

val pp : Format.formatter -> t -> unit
(** Prints the paper's three metrics; availability and lost-job counts
    are appended only when they carry information (a fault-free run
    prints exactly as before the reliability extension). *)

val deviation : expected:float array -> counts:int array -> float
(** [deviation ~expected ~counts] is Σ (α_i − c_i/Σc)².  An interval with
    no dispatched jobs ([Σc = 0]) has deviation Σ α_i² (everything
    deviates).

    @raise Invalid_argument on length mismatch. *)

val actual_fractions : int array -> float array
(** Per-computer dispatch counts normalised to fractions; all zeros if no
    jobs. *)
