(** Event-driven processor-sharing server.

    The paper's computers "apply preemptive round-robin processor
    scheduling" (Section 4.1); processor sharing is its exact fluid limit
    as the quantum goes to zero (Kleinrock Vol. II), and is also the model
    under which the optimized allocation is derived (Section 2.3).  The
    implementation uses the standard virtual-time formulation: virtual
    time advances at rate [speed / n(t)], a job of size [σ] arriving at
    virtual time [v] departs when virtual time reaches [v + σ], so the
    next departure is always the minimum over a heap — every arrival and
    departure costs O(log n) with no per-job bookkeeping updates.  The
    next departure is the server's one engine completion slot
    ({!Statsched_des.Engine.slot}), re-armed in place on every arrival,
    departure and rate change, so it never occupies the engine's event
    heap.  {!Serial_server} in [Rr] order with a small quantum validates this
    model in the tests. *)

type 'a t
(** A PS server of ['a] payloads: {!Job.t} records, made by {!create},
    or {!Job_store} slots, behind the {!serve} view. *)

val create :
  engine:Statsched_des.Engine.t ->
  speed:float ->
  on_departure:(Job.t -> unit) ->
  unit ->
  Job.t t
(** A PS server of relative [speed] attached to [engine].
    [on_departure] fires at each job completion, after the job's
    [completion] field is set.

    @raise Invalid_argument if [speed <= 0]. *)

val submit : Job.t t -> Job.t -> unit
(** Hand a job to the server at the current simulation time.  Sets the
    job's [start] field. *)

val serve :
  engine:Statsched_des.Engine.t ->
  speed:float ->
  store:Job_store.t ->
  on_departure:(int -> unit) ->
  unit ->
  Server_intf.t
(** A PS server of the jobs in [store], seen as a {!Server_intf.t}: it
    takes slots, records their [start] at submission and [completion] at
    departure, then calls [on_departure slot].  The submit → departure
    cycle allocates nothing.

    @raise Invalid_argument if [speed <= 0]. *)

val in_system : 'a t -> int
(** Jobs currently being served (PS serves all of them concurrently). *)

val mean_in_system : 'a t -> float
(** Time-averaged number of jobs present since creation or
    {!reset_stats} — Little's [L]. *)

val utilization : 'a t -> float
(** Time-averaged busy fraction since creation or {!reset_stats}. *)

val completed : 'a t -> int

val work_done : 'a t -> float
(** Service delivered since creation or {!reset_stats}, in speed-1
    seconds. *)

val reset_stats : 'a t -> unit

val set_rate : 'a t -> float -> unit
(** Fault hook: scale the service rate by the given factor from now on
    ([0] suspends the server, freezing every job's progress; [1] restores
    nominal speed).  See {!Server_intf.t.set_rate}.

    @raise Invalid_argument if the rate is negative. *)

val drain : 'a t -> 'a list
(** Fault hook: remove all jobs without completing them (their partial
    service is discarded).  See {!Server_intf.t.drain}. *)

