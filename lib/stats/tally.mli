(** Time-weighted tally for piecewise-constant signals.

    Integrates a step function of simulated time — queue length, number of
    jobs in service, busy/idle indicator — to report its time average.
    This is the standard "time-persistent statistic" of discrete-event
    simulation; computer utilisation in the experiments is collected with
    it. *)

type t

val create : ?start_time:float -> unit -> t

val update : t -> time:float -> value:float -> unit
(** [update t ~time ~value] records that the signal changed to [value] at
    [time].  Times must be non-decreasing.

    @raise Invalid_argument if [time] precedes the last update. *)

val advance : t -> time:float -> unit
(** Extend the current value up to [time] without changing it. *)

val time_average : t -> float
(** Integral of the signal divided by elapsed time since [start_time]
    (or since the last {!reset_at}); [nan] if no time has elapsed. *)

val current_value : t -> float

val reset_at : t -> time:float -> unit
(** Forget history; start integrating afresh at [time] with the current
    value.  Used to discard the warm-up period. *)
