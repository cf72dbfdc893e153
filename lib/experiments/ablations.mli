(** Ablation studies of the design choices called out in DESIGN.md §5.

    Each ablation isolates one design decision of the paper's algorithms
    (or of our substrate) and measures what it buys.
    `schedsim experiment ablation-NAME` runs one. *)

type dispatch_row = {
  dispatcher : string;
  mean_deviation : float;  (** Figure 2-style interval deviation *)
}

val dispatch_smoothness : ?seed:int64 -> unit -> dispatch_row list
(** Algorithm 2 against its variants (no first-assignment guard, index
    tie-breaking), smooth WRR, golden-ratio quasi-random, and random, all
    on the Figure 2 fraction set and arrival stream.  Sorted as listed —
    not by result. *)

val dispatch_smoothness_report : dispatch_row list -> string

val end_to_end :
  ?seed:int64 -> ?jobs:int -> scale:Config.scale -> unit -> (string * Runner.point) list
(** Scheduler variants end-to-end on the Table 3 cluster at ρ = 0.7:
    ORR and its dispatch/allocation ablations, WRR, Least-Load with and
    without update delays. *)

val end_to_end_report : (string * Runner.point) list -> string

type discipline_row = {
  model : string;
  response_time : Statsched_stats.Confidence.interval;
  response_ratio : Statsched_stats.Confidence.interval;
}

val disciplines :
  ?seed:int64 -> ?jobs:int -> scale:Config.scale -> unit -> discipline_row list
(** PS vs quantum-RR (two quanta) vs FCFS vs SRPT on an M/M workload —
    the PS-model validation plus the discipline contrast. *)

val disciplines_report : discipline_row list -> string
(** The table, then two lines reading it. *)

type interval_row = {
  interval_length : float;
  round_robin_deviation : float;
  random_deviation : float;
}

val interval_lengths : ?seed:int64 -> unit -> interval_row list
(** Sensitivity of the Figure 2 deviation metric to the measurement
    interval length (the paper uses 120 s). *)

val interval_lengths_report : interval_row list -> string
