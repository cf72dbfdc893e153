(** Serial servers: one job holds the processor, the others wait in a
    ready list.

    Three service orders share this machine and differ only in how the
    ready list is kept, how long a service slice lasts, and whether an
    arrival can take the processor:

    - {!Fcfs}: a FIFO ready list and unbounded slices, so each job runs
      to completion.  Not the paper's model (its machines time-share),
      but a contrast host: under heavy-tailed sizes a huge job blocks
      the small ones behind it, which magnifies the response-ratio
      metric and motivates the PS assumption.
    - {!Rr} [q]: the literal reading of the paper's "preemptive
      round-robin processor scheduling" (Section 4.1) — a FIFO ready
      list and slices of at most [q] work, after which the job rejoins
      the back of the list.  As [q] shrinks this converges to
      {!Ps_server}, and a test checks the agreement on identical traces.
      Every slice end is a simulation event (a firing of the server's
      engine completion slot), so small quanta are slow; this
      order validates the PS model rather than running the headline
      experiments.
    - {!Srpt}: shortest-remaining-processing-time, the optimal
      single-server order for mean response time and the size-aware
      counterpart to PS at the host level (as SITA-E is at the
      dispatching level).  The ready list is keyed by remaining work,
      slices are unbounded, and an arrival preempts the running job when
      its size is below the runner's remaining work.

    Fault hooks ({!Server_intf.t.set_rate}, {!Server_intf.t.drain}) keep
    the running job's progress across a rate change; a resumed job
    starts a fresh slice.  [drain] returns the running job first, then
    the waiting jobs in the order they would have been served. *)

type order =
  | Fcfs
  | Rr of float  (** slice length in speed-1 seconds of work *)
  | Srpt

val create :
  engine:Statsched_des.Engine.t ->
  speed:float ->
  order:order ->
  on_departure:(Job.t -> unit) ->
  unit ->
  Server_intf.t
(** A serial server of relative [speed] attached to [engine].
    [on_departure] fires at each job completion, after the job's
    [completion] field is set.  A job's [start] field is set when it
    first takes the processor.  The record's [discipline] is ["FCFS"],
    ["RR(q=<q>)"] or ["SRPT"].

    @raise Invalid_argument if [speed <= 0] or an [Rr] quantum is
    [<= 0]. *)
