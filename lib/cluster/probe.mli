(** Periodic queue-length probing.

    Samples every computer's run-queue length at a fixed simulated-time
    cadence, producing the load time series behind phenomena the summary
    metrics can only hint at — the herd oscillations of stale-information
    scheduling, warm-up transients, diurnal swings.  Plug {!on_tick} into
    {!Simulation.run}. *)

type t

val create : unit -> t

val on_tick : t -> time:float -> queues:int array -> unit
(** The callback for {!Simulation.run}'s [on_tick] hook. *)

val sample_count : t -> int

val times : t -> float array
(** Sample instants, in order. *)

val series : t -> int -> int array
(** [series p i] is computer [i]'s queue-length series.

    @raise Invalid_argument if no samples were taken or [i] is out of
    range. *)

val peak : t -> int
(** Largest single-computer queue length observed. *)

val write_csv : t -> string -> unit
(** Header [time,c0,c1,…]; one line per sample. *)
