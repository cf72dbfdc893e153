(** Parameter sweeps: the shape of Figures 3–6 and of the extension
    sweeps.  A {!study} takes a grid of one parameter, builds the
    cluster and workload for each value, measures a fixed set of
    schedulers on it, and prints one panel per metric.  The studies
    themselves are data, in {!Studies}. *)

val over_schedulers :
  ?seed:int64 ->
  ?jobs:int ->
  ?faults:Statsched_cluster.Fault.plan ->
  scale:Config.scale ->
  schedulers:(string * Statsched_cluster.Scheduler.kind) list ->
  speeds:float array ->
  workload:Statsched_cluster.Workload.t ->
  unit ->
  (string * Runner.point) list
(** Measure every scheduler on the same cluster and workload.  Each
    scheduler sees identical arrival and size streams per replication
    (common random numbers), and the same fault plan when one is
    given.  [jobs] fans each scheduler's replications across domains
    (see {!Runner.replicate}); the output is identical for every
    [jobs]. *)

type metric = [ `Time | `Ratio | `Fairness ]

type cell = {
  speeds : float array;
  workload : Statsched_cluster.Workload.t;
  faults : Statsched_cluster.Fault.plan option;
  schedulers : (string * Statsched_cluster.Scheduler.kind) list;
      (** the panel's columns, in order *)
  scale : Config.scale;  (** horizon, warm-up and replications *)
}
(** What one x value of a sweep measures. *)

type study = {
  title : string;
  xlabel : string;
  metrics : metric list;  (** one panel each, in order *)
  xs : float list;  (** the grid, one row each, in order *)
  cell : scale:Config.scale -> float -> cell;
      (** the cell at one x, given the command line's scale *)
}

type rows = (float * (string * Runner.point) list) list
(** One row per x value: every scheduler's measurement. *)

val run : ?seed:int64 -> ?jobs:int -> scale:Config.scale -> study -> rows
(** Measure every cell, in grid order, with {!over_schedulers}.
    @raise Invalid_argument when the cell function rejects an x. *)

val sweeps : study -> rows -> Report.sweep list
(** One printable series table per metric, titled
    ["<title> — <metric name>"]. *)

val to_report : study -> rows -> string
(** The {!sweeps}, rendered and separated by blank lines. *)
