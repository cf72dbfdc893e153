(** Confidence intervals over independent replications.

    Each experiment data point averages several independent simulation runs
    (the paper uses 10); this module turns those per-run means into a point
    estimate with a Student-t half-width. *)

type interval = {
  mean : float;
  half_width : float;  (** [nan] when fewer than two replications. *)
  confidence : float;
  replications : int;
}

val of_samples : ?confidence:float -> float array -> interval
(** [of_samples xs] is the [confidence] (default 0.95) interval for the
    mean of the population the replication means [xs] are drawn from.

    @raise Invalid_argument if [xs] is empty. *)

val lower : interval -> float
val upper : interval -> float

val pp : Format.formatter -> interval -> unit
(** Renders as ["m ± h"], or just ["m"] when the half-width is [nan]
    (single replication). *)
