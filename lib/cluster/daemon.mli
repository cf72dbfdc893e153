(** Scheduler-as-a-service: the logic of the [schedsimd] daemon.

    A daemon wraps a {!Simulation.Driver} in [`External] arrival mode —
    jobs enter over HTTP rather than from a workload model — and drives
    its virtual clock from wall time (scaled by [time_scale]).  A
    {!Telemetry} instance rides the driver's observer hooks, so the
    [/metrics], [/state] and journal surfaces are exactly the ones batch
    runs export.

    Endpoints ({!handle_request}):
    - [POST /jobs] — body is one positive number, the job's service
      demand in seconds on a speed-1 computer.  Admission control: 202
      with [{"id","computer","time"}] when accepted, 429 once
      [backlog_limit] jobs are in the system, 503 while draining, 400 on
      an unparseable body.
    - [GET /state] — live per-computer gauges ({!Telemetry.state_json}).
    - [GET /metrics] — Prometheus text exposition.
    - [GET /healthz] — liveness probe.
    - [GET /policy] / [PUT /policy] — read / hot-swap the scheduling
      policy by name (see {!Scheduler.of_name}); the swap re-runs the
      policy's construction (Algorithm 1 for the optimized statics)
      without disturbing in-flight jobs.  503 while draining.
    - [POST /drain] — stop admitting, run every in-flight job to
      completion, finalize the run (idempotent).

    Handlers are serialised by an internal mutex, so the pure
    {!handle_request} is safe to call from the HTTP accept thread and
    tests alike; {!serve} mounts it on {!Statsched_obs.Http}. *)

type t

val create :
  ?journal:Statsched_obs.Journal.t ->
  ?time_scale:float ->
  ?backlog_limit:int ->
  ?clock:(unit -> float) ->
  Simulation.config ->
  t
(** Build a daemon over [cfg] (whose [horizon] acts only as the
    validation cap and journal metadata — the run actually ends at
    {!drain} time; use [warmup = 0] so every completion is measured).
    [time_scale] (default 1) is virtual seconds per wall second.
    [backlog_limit] (default 1000) bounds jobs in system before
    [POST /jobs] answers 429.  [clock] overrides the virtual-time
    source — tests inject a deterministic one; the default reads
    {!Statsched_obs.Clock} once per request.

    @raise Invalid_argument on a non-positive [time_scale] or
    [backlog_limit], or an infeasible [cfg] (per {!Simulation.run}). *)

val handle_request : t -> Statsched_obs.Http.request -> Statsched_obs.Http.response
(** Serve one request (see the endpoint table above).  Serialised by the
    daemon's mutex; advances the virtual clock before acting, so state
    reads are current.  Never raises: unknown paths are 404, wrong
    methods 405, handler-level failures 400. *)

val serve :
  ?addr:string -> ?read_timeout:float -> t -> port:int -> Statsched_obs.Http.t
(** Mount {!handle_request} on a {!Statsched_obs.Http.serve_requests}
    server (loopback by default; [port = 0] picks an ephemeral port). *)

val drain : t -> unit
(** [POST /drain] from the inside — the SIGTERM path.  Idempotent. *)

val is_drained : t -> bool

val result : t -> Simulation.result option
(** The finalized run after a drain; [None] before draining, and also
    when the daemon drained without ever measuring a completion (an
    empty run has no summary — {!Telemetry.write_journal} then has
    nothing to cross-validate and the journal carries no summary). *)

val write_journal : t -> string -> bool
(** Write the run journal with the drain time as the measurement-window
    end ({!Telemetry.write_journal} with the right [horizon]); [false]
    when there is no finalized result to cross-validate against (not
    drained yet, or nothing measured). *)

val telemetry : t -> Telemetry.t
val driver : t -> Simulation.Driver.t
val virtual_now : t -> float
val backlog : t -> int
(** Jobs currently in the system (the admission-control gauge). *)
