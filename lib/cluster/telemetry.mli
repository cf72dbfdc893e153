(** Unified run telemetry: a metric registry plus an optional run
    journal, fed by the passive observer hooks of {!Simulation.run}.

    Construct one per run, pass its [on_*] callbacks to {!Simulation.run},
    then call {!finalize} with the result to close open spans and set the
    summary gauges.  Everything recorded here is derived from the
    simulation's own deterministic state — telemetry never draws random
    numbers or schedules events, so an instrumented run is bit-identical
    to an uninstrumented one under the same seed.  The only wall-clock
    reads ({!Statsched_obs.Clock}) happen in {!create} and {!finalize} and
    feed self-profiling gauges only.

    Exported metric names are listed in the README ("Observability"). *)

type t

val create : ?journal:Statsched_obs.Journal.t -> Simulation.config -> t
(** Metrics are always on.  [journal] tees every hook into a bounded
    structured run journal (dispatch/queue-depth/completion/drop/rate
    records, systematically sampled) — see {!Statsched_obs.Journal}.
    At stride 1 the journal is the run's complete record, from which
    [tracestat export] renders the per-job CSV and the Chrome trace. *)

val on_dispatch : t -> Statsched_queueing.Job.t -> unit
val on_completion : t -> Statsched_queueing.Job.t -> unit
val on_drop : t -> Statsched_queueing.Job.t -> unit
val on_rate_change : t -> time:float -> computer:int -> rate:float -> unit

val finalize : ?horizon:float -> t -> Simulation.result -> unit
(** Close any open capacity span at the horizon and set the end-of-run
    gauges (utilization, dispatch drift, availability, DES self-profiling,
    events per wall-clock second).  Call exactly once, after
    {!Simulation.run} returns.  [horizon] overrides the configured
    horizon as the run's end time — a {!Simulation.Driver} caller whose
    virtual clock stopped short of the cap passes the real end time so
    window-derived gauges stay truthful. *)

val registry : t -> Statsched_obs.Registry.t
(** The hot hooks count dispatches/completions/drops in flat integer
    shadows only; the exported counter cells are brought up to date on
    every read path ({!serve}'s [/metrics], {!write_metrics},
    {!finalize}).  Render this registry directly mid-run and the
    per-computer job counters may lag the shadows. *)

val histograms :
  t -> Statsched_obs.Hdr_histogram.t * Statsched_obs.Hdr_histogram.t
(** The registered response-time and response-ratio exporter histograms,
    for [Simulation.run ~metric_histograms:(Telemetry.histograms t)]:
    the run's collector then accumulates straight into the exported
    series, so live scrapes read the collector's own distributions.  The
    collector is the only writer of these histograms; without this
    wiring they stay empty. *)

val metric_count : t -> int

val write_metrics : t -> string -> unit
(** Prometheus text exposition to a file. *)

(** {2 Live observation}

    The live surface reads only what the passive hooks already maintain
    (plus {!Statsched_des.Engine.snapshot} when an engine was attached):
    serving never mutates simulation state, draws randomness, or
    schedules events, so a served run is bit-identical to an unserved
    one under the same seed. *)

val set_engine : t -> Statsched_des.Engine.t -> unit
(** Attach the run's DES engine so {!state_json} can report live
    simulation time and event counts.  Pass as
    [Simulation.run ~on_engine:(Telemetry.set_engine t)]. *)

val journal : t -> Statsched_obs.Journal.t option

val metrics_exposition : t -> string
(** Prometheus text exposition of {!registry}, with the counter shadows
    synced first — what {!scrape}'s [/metrics] returns. *)

val state_json : t -> string
(** One JSON object with run progress ([sim_time], [events_executed],
    [pending_events] — zero until {!set_engine}) and per-computer live
    gauges: current effective [rate], instantaneous [queue_depth]
    (dispatched − completed − dropped), cumulative dispatch/completion/
    drop counts, [busy_seconds] (completed work over nominal speed) and
    the derived whole-run [utilization], plus journal occupancy. *)

val scrape :
  ?before_state:(unit -> unit) ->
  t ->
  string ->
  Statsched_obs.Http.response option
(** The response to [GET path] for the three scrape endpoints:
    [/metrics] (Prometheus text exposition of {!registry}), [/healthz]
    ([ok]) and [/state] ({!state_json}); [None] for any other path.
    [before_state] runs just before [/state] renders — the [schedsimd]
    daemon advances its virtual clock there.  {!serve} and the daemon
    both route through this. *)

val serve : ?addr:string -> t -> port:int -> Statsched_obs.Http.t
(** Start the in-process telemetry server (background systhread; see
    {!Statsched_obs.Http}) answering {!scrape}'s three endpoints.
    [port = 0] picks an ephemeral port; stop with
    {!Statsched_obs.Http.stop}. *)

val write_journal : ?horizon:float -> t -> Simulation.result -> string -> unit
(** Write the journal (atomically) with run-configuration [meta] lines
    and collector-side [summary] lines — mean response time/ratio,
    per-computer utilizations and dispatch fractions — so
    [tools/tracestat] can cross-validate the two against each other.
    No-op when the telemetry was created without a journal.  [horizon]
    overrides the configured horizon in the meta lines, as in
    {!finalize} — a drained daemon passes its final virtual time so the
    cross-validator's measurement window matches reality. *)
