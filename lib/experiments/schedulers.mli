(** The scheduler roster used across experiments (Section 4.2). *)

val static_four : (string * Statsched_cluster.Scheduler.kind) list
(** WRAN, ORAN, WRR, ORR — the Table 2 matrix. *)

val with_least_load : (string * Statsched_cluster.Scheduler.kind) list
(** The four static policies plus the Dynamic Least-Load yardstick. *)

val dispatch_ablations : (string * Statsched_cluster.Scheduler.kind) list
(** ORR against its dispatching ablations: no-guard round-robin,
    index-tie round-robin and smooth WRR, all over the optimized
    allocation. *)
