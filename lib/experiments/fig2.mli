(** Figure 2 — workload allocation deviation of the two dispatching
    strategies.

    Eight computers with fractions 0.35, 0.22, 0.15, 0.12 and four of
    0.04; a hyperexponential arrival stream with mean inter-arrival time
    2.2 s; 30 consecutive 120-second intervals.  For each interval the
    deviation Σ(α_i − α'_i)² between intended and realised fractions is
    reported for round-robin and for random dispatching.  This experiment
    involves no servers at all — it observes the dispatcher alone. *)

val fractions : float array
(** The paper's eight fractions. *)

type result = {
  round_robin : float array;  (** deviation per interval *)
  random : float array;
  round_robin_summary : Statsched_stats.Summary.t;
  random_summary : Statsched_stats.Summary.t;
}

val run :
  ?seed:int64 ->
  ?jobs:int ->
  ?n_intervals:int ->
  ?interval_length:float ->
  ?mean_interarrival:float ->
  ?arrival_cv:float ->
  unit ->
  result
(** Defaults follow the paper: 30 intervals of 120 s, mean inter-arrival
    2.2 s, arrival CV 3 (Section 4.1's default burstiness). *)

val run_dispatcher :
  ?seed:int64 ->
  ?n_intervals:int ->
  ?interval_length:float ->
  ?mean_interarrival:float ->
  ?arrival_cv:float ->
  Statsched_core.Dispatch.t ->
  float array
(** Deviations of an arbitrary dispatcher under the same arrival stream. *)

val to_report : result -> string

(** {1 Deviation studies of Algorithm 2}

    Two ablations of its design choices, each measured as the mean
    Figure 2 deviation over {!run_dispatcher}'s arrival stream. *)

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

type interval_row = {
  interval_length : float;
  round_robin_deviation : float;
  random_deviation : float;
}

val interval_lengths : ?seed:int64 -> unit -> interval_row list
(** Sensitivity of the Figure 2 deviation metric to the measurement
    interval length (the paper uses 120 s), over one hour of
    arrivals. *)

val interval_lengths_report : interval_row list -> string
