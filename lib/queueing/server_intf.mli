(** Uniform first-class view of a server.

    {!Ps_server.serve} and {!Serial_server.create} build one, so the
    cluster model can mix service disciplines per computer.  The server
    serves the jobs of one {!Job_store}, given to it at creation: it
    takes slots, reads their sizes, records each job's [start] and
    [completion] in the store, and passes the slot to its [on_departure]
    callback once the completion is recorded. *)

type t = {
  speed : float;  (** relative processing speed [s_i > 0] *)
  submit : int -> unit;
      (** hand the job in this store slot to the server at the current
          simulation time *)
  in_system : unit -> int;  (** jobs currently queued or in service (run-queue length) *)
  mean_in_system : unit -> float;
      (** time-averaged number of jobs present since creation/reset — the
          [L] of Little's law ([L = λ·W]), which the integration tests
          verify against the collector's response times *)
  utilization : unit -> float;
      (** time-averaged fraction of time the server was delivering
          service since creation/reset (suspended time counts as idle) *)
  completed : unit -> int;  (** jobs departed so far *)
  work_done : unit -> float;  (** total service delivered, in speed-1 seconds *)
  reset_stats : unit -> unit;  (** discard utilisation/work statistics (end of warm-up) *)
  set_rate : float -> unit;
      (** fault hook: multiply the service rate by this factor from now
          on.  [0] suspends service entirely (jobs stay queued and keep
          their progress under preempt-resume disciplines); [1] restores
          nominal speed; intermediate values model degraded computers.
          Submissions are accepted while suspended. *)
  drain : unit -> int list;
      (** fault hook: remove every job (queued or in service) without
          completing it and return their slots.  Partial service is discarded —
          a drained job restarts from scratch if resubmitted (there is no
          checkpointing).  Used by the crash policies (drop / requeue). *)
  discipline : string;  (** e.g. ["PS"], ["RR(q=0.01)"], ["FCFS"] *)
}
