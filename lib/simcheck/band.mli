(** Confidence-band comparison of a simulated estimate against a
    closed-form prediction.

    The tolerance is {e calibrated from the data}, not a magic epsilon: a
    Student-t interval at the requested confidence (default 99.9 %, so a
    correct simulator trips a band about once per thousand seeds) plus an
    explicit [bias] allowance — default 1 % of the predicted value — for
    what the interval cannot see: the residual initial-transient bias of
    a finite, warm-up-truncated horizon.  Both knobs are visible in the
    verdict so a failure message shows exactly how far outside the band
    the simulator landed. *)

type t = {
  name : string;
  interval : Statsched_stats.Confidence.interval;
      (** the simulated estimate with its half-width *)
  theory : float;  (** the closed-form prediction *)
  allowance : float;  (** [half_width + bias·|theory|], the decision radius *)
  ok : bool;
}

val of_samples :
  ?confidence:float -> ?bias:float -> name:string -> theory:float -> float array -> t
(** Band from per-replication estimates.  Defaults: [confidence = 0.999],
    [bias = 0.01].  A single sample has no width estimate; the bias term
    alone then decides.  An infinite [theory] (saturation) requires an
    infinite estimate; [nan] on either side always fails.

    @raise Invalid_argument on an empty sample array. *)

val of_interval : ?bias:float -> name:string -> theory:float -> Statsched_stats.Confidence.interval -> t
(** Band from an already-computed interval (e.g. a binomial interval
    around a dispatch fraction counted from a journal). *)

val pp : Format.formatter -> t -> unit

val to_check : t -> Check.t
