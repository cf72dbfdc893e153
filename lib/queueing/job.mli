(** Jobs flowing through the simulated system.

    A job's [size] is defined exactly as in the paper (Section 2.3): its
    completion time when executed alone on an idle machine of relative
    speed 1.  On a machine of speed [s] the job therefore needs [size/s]
    seconds of dedicated service. *)

type t = {
  mutable id : int;
  mutable size : float;  (** service demand in speed-1 seconds; [> 0] *)
  mutable arrival : float;  (** arrival time at the central scheduler *)
  mutable computer : int;  (** index of the computer it was dispatched to; −1 before dispatch *)
  mutable start : float;  (** first instant it received service; −1 until then *)
  mutable completion : float;  (** departure time; −1 until completed *)
}
(** The simulator keeps its jobs in a {!Job_store}, not in records: a
    float stored into this mixed record is boxed.  A record is made from
    the store only for a caller's job hook (the simulator's
    [on_dispatch], [on_completion] and [on_drop]); [id], [size] and
    [arrival] are mutable only so such a record can be refilled for the
    next job of its slot. *)

val create : id:int -> size:float -> arrival:float -> t
(** @raise Invalid_argument if [size <= 0] or [arrival < 0]. *)

val is_completed : t -> bool

val response_time : t -> float
(** [completion − arrival].

    @raise Invalid_argument if the job has not completed. *)

val response_ratio : t -> float
(** Response time divided by size — the paper's per-job slowdown metric.

    @raise Invalid_argument if the job has not completed. *)

val pp : Format.formatter -> t -> unit
