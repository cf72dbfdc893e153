(** Extension experiment: how stale can dynamic load information get
    before static ORR wins?

    The paper prices Least-Load's advantage assuming near-real-time load
    updates (sub-second delays).  Real deployments often poll: this sweep
    drives Least-Load from fresh polls (1 s) to very stale ones (10⁴ s)
    on the Table 3 configuration and finds the crossover where ORR —
    which needs {e no} load information — overtakes it.  The [blind]
    variant (scheduler does not even count its own in-flight dispatches
    between polls) exhibits the classic herd pathology and collapses far
    earlier. *)

val default_poll_periods : float list
(** [1; 10; 100; 1000; 10000] seconds. *)

type t = (float * (string * Runner.point) list) list
(** Rows keyed by poll period; columns: StaleLeastLoad, blind variant,
    plus the static ORR and true Least-Load frames (constant across
    rows). *)

val run :
  ?scale:Config.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?speeds:float array ->
  ?poll_periods:float list ->
  unit ->
  t

val to_report : t -> string

val partial_information :
  ?scale:Config.scale -> ?seed:int64 -> ?jobs:int -> unit -> (string * Runner.point) list
(** The other axis of partial information: fresh load, but only [d]
    probed computers per decision.  ORR, Least-Load over [d = 2] and
    [d = 4] random probes, and full Least-Load on the Table 3 cluster at
    ρ = 0.7. *)

val partial_information_report : (string * Runner.point) list -> string
