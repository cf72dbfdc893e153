(** The two shapes of a scheduler comparison.  A {!study} is a
    parameter sweep, the shape of Figures 3–6 and of the extension
    sweeps: it takes a grid of one parameter, builds the cluster and
    workload for each value, measures a fixed set of schedulers on it,
    and prints one panel per metric.  A {!table} is a comparison table,
    the shape of the ablations and of [schedsim compare]: labelled rows,
    each measuring its own cell, printed as one table.  The studies and
    tables themselves are data, in {!Studies}. *)

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

type metric = [ `Time | `Ratio | `Fairness | `Median | `P99 ]
(** A mean (response time, response ratio) or the fairness, each with
    its confidence interval; or the median or p99 response ratio of
    every measured job, without one. *)

type cell = {
  speeds : float array;
  workload : Statsched_cluster.Workload.t;
  faults : Statsched_cluster.Fault.plan option;
  discipline : Statsched_cluster.Simulation.discipline;
      (** every computer's service discipline *)
  schedulers : (string * Statsched_cluster.Scheduler.kind) list;
      (** the panel's columns, in order *)
  scale : Config.scale;  (** horizon, warm-up and replications *)
}
(** What one x value of a sweep, or one row of a table, measures. *)

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
(** Measure every cell, in grid order: each of its schedulers as
    {!over_schedulers} does, under the cell's discipline.
    @raise Invalid_argument when the cell function rejects an x. *)

val sweeps : study -> rows -> Report.sweep list
(** One printable series table per metric, titled
    ["<title> — <metric name>"]. *)

val to_report : study -> rows -> string
(** The {!sweeps}, rendered and separated by blank lines. *)

type table = {
  preamble : string;  (** printed above the table *)
  header : string list;
      (** the row label columns, then one column per metric of each
          scheduler *)
  metrics : metric list;  (** per scheduler, in order *)
  rows : scale:Config.scale -> (Report.cell list * cell) list;
      (** each row's label cells and the cell it measures, given the
          command line's scale *)
  note : string;  (** printed below the table *)
}

type table_rows = (Report.cell list * (string * Runner.point) list) list
(** One row per table row: its label cells and every scheduler's
    measurement. *)

val run_table : ?seed:int64 -> ?jobs:int -> scale:Config.scale -> table -> table_rows
(** Measure every row's cell, in order, as {!run} does.  Under common
    random numbers a table with one scheduler per row measures exactly
    what one {!over_schedulers} call over all of them does. *)

val table_to_report : table -> table_rows -> string
(** The preamble, the table, then the note.  A row prints its label
    cells, then for each scheduler of its cell one cell per metric.

    @raise Invalid_argument when a row's width differs from the
    header's. *)
