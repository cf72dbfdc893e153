(** Join-Idle-Queue dispatching state (Lu et al.; Gardner et al. for the
    heterogeneous treatment — see PAPERS.md).

    The scalable end of the dynamic-policy spectrum: instead of probing
    loads at dispatch time, computers report {e themselves} when they go
    idle.  The scheduler keeps intrusive idle stacks — one per speed
    class, fastest class preferred — so a decision is O(1): pop the top
    of the fastest non-empty stack, or fall back to speed-weighted
    random (Walker alias table, also O(1)) when nothing is idle.

    Like {!Least_load} this module is only the scheduler-side state
    machine; the cluster model wires departures and failures into it.
    All state is flat arrays indexed by computer — nothing on the
    decision path allocates. *)

type t

val create : float array -> t
(** [create speeds] starts with every computer idle and available.

    @raise Invalid_argument on an invalid speed vector. *)

val select : rng:Statsched_prng.Rng.t -> t -> int
(** Destination for the next job: the most recently idled computer of
    the fastest speed class with idle members; when no computer is idle,
    a speed-weighted random draw (two [rng] draws per attempt, redrawn
    up to 16 times to dodge unavailable computers, then first-available
    scan as a last resort).  Consumes randomness {e only} on the no-idle
    path.  Does not modify the state. *)

val job_sent : t -> int -> unit
(** Record a dispatch to computer [i]: removes it from the idle stack
    (if present) and increments its believed queue length. *)

val departure_recorded : t -> int -> unit
(** A job left computer [i]; when its believed queue reaches zero the
    computer pushes itself onto its class's idle stack (JIQ's one
    message per job).  Clamped at zero. *)

val set_available : t -> int -> bool -> unit
(** Availability for fault runs: a down computer leaves the idle stacks
    and stops being a fallback candidate; on recovery it re-joins the
    idle stack if its queue is empty. *)
