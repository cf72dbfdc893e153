(** Shared experiment configuration.

    Every experiment accepts a {!scale} that trades fidelity for wall
    time.  {!paper} reproduces the paper's methodology exactly — 4·10⁶
    simulated seconds per run (1 to 2 million jobs), first quarter
    discarded, 10 independent replications per data point; the smaller
    scales keep the same structure with shorter horizons and fewer
    replications. *)

type scale = {
  horizon : float;  (** simulated seconds per run *)
  warmup : float;  (** discarded start-up prefix *)
  reps : int;  (** independent replications per data point *)
}

val quick : scale
(** 10⁵ s, 2 replications — seconds of wall time; CI smoke tests. *)

val default_scale : scale
(** 4·10⁵ s, 5 replications — the default for `schedsim experiment`;
    the paper's curves are already clearly separated at this scale. *)

val paper : scale
(** 4·10⁶ s, 10 replications — the paper's exact methodology. *)

val equal_scale : scale -> scale -> bool
(** Structural equality on scales (float fields compared with
    [Float.equal]). *)

val scale_name : scale -> string

val default_seed : int64
(** Seed shared by all experiments unless overridden. *)

val base_utilization : float
(** The paper's default system utilisation, 0.7. *)
