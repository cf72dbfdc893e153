(** Extension: the many-server scaling regime.

    The paper's cluster has six computers; this sweep grows it to
    n ∈ {10², 10³, 10⁴} (10 % fast computers at speed 10, 90 % at
    speed 1, ρ = 0.7) and compares the dispatchers whose per-decision
    cost survives that growth:

    - ORR — the paper's Algorithm 2 in lazy offset form, O(log n);
    - LeastLoad — full-information JSQ ([d = n]) on the tournament
      tree, O(log n);
    - JSQ(d) — power-of-d-choices over the same exact queue state, O(d);
    - JIQ — Join-Idle-Queue, O(1).

    Runs are sized in {e jobs}, not simulated seconds: the arrival rate
    grows with the cluster's total speed, so every cell completes the
    same number of jobs and per-policy wall-clock throughput is directly
    comparable across n. *)

type cell = {
  policy : string;
  n : int;
  mean_response_ratio : float;
  p99_response_ratio : float;
  jobs_completed : int;
  events_executed : int;
  wall_seconds : float;  (** wall-clock of this cell's single replication *)
  events_per_sec : float;
  jobs_per_sec : float;
  heap_high_water : int;
}

type t = {
  rho : float;
  jobs_target : float;
  ns : int list;
  d : int;
  cells : cell list;  (** grid order: for each n, each policy *)
}

val default_ns : int list
(** [[100; 1000; 10000]] *)

val default_jobs_target : float
(** 10⁷ jobs per cell. *)

val speeds_for : int -> float array
(** The sweep's two-class speed vector for a cluster of [n]. *)

val run :
  ?seed:int64 ->
  ?jobs:int ->
  ?ns:int list ->
  ?jobs_target:float ->
  ?d:int ->
  ?rho:float ->
  unit ->
  t
(** Run the grid.  [jobs] fans independent cells across domains (each
    cell is a pure function of its parameters, so results do not depend
    on it); [d] is the JSQ sample size (default 2).

    @raise Invalid_argument if [d < 1], any [n < 1] or
    [jobs_target < 1]. *)

val to_csv : t -> string
(** One row per cell via {!Report.render_csv} (so a policy name with a
    comma, such as [JSQ(d=2,uniform)], is quoted); header
    [policy,n,mean_response_ratio,p99_response_ratio,jobs,events,wall_seconds,events_per_sec,jobs_per_sec,heap_high_water]. *)

val to_report : t -> string
(** Human-readable per-n response-ratio and throughput table. *)
