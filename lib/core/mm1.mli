(** Analytical M/M/1 (processor-sharing) performance model (Section 2.3).

    Each computer [i] receiving fraction [α_i] of a Poisson-[λ] stream of
    exponential-[μ] jobs behaves as an M/M/1-PS queue with service rate
    [s_i·μ].  Closed forms for the paper's metrics follow; these are used
    to derive and sanity-check the optimized allocation and to validate
    the simulator on the tractable workload. *)

val server_mean_response_time : mu:float -> lambda:float -> speed:float -> alpha:float -> float
(** [T̄_i = 1 / (s_i·μ − α_i·λ)]; [infinity] when saturated. *)

val server_utilization : mu:float -> lambda:float -> speed:float -> alpha:float -> float
(** [ρ_i = α_i·λ / (s_i·μ)]. *)

val mean_response_time : mu:float -> lambda:float -> speeds:float array -> alloc:float array -> float
(** System mean response time [T̄ = Σ α_i·T̄_i] (equation (3)). *)

val mean_response_ratio : mu:float -> lambda:float -> speeds:float array -> alloc:float array -> float
(** [R̄ = μ·T̄]. *)

val system_utilization : mu:float -> lambda:float -> speeds:float array -> float
(** [ρ = λ / (μ·Σ s_i)]. *)

val lambda_of_utilization : mu:float -> rho:float -> speeds:float array -> float
(** Arrival rate achieving system utilisation [rho]. *)

val theorem1_alloc : mu:float -> lambda:float -> speeds:float array -> float array
(** Equation (4): the unconstrained-sign optimiser
    [α_i = (1/λ)(s_iμ − √(s_iμ)·(Σ s_jμ − λ)/(Σ √(s_jμ)))].
    Fractions may be negative for very slow computers; {!Allocation.optimized}
    applies the Theorem 2 cutoff to make it feasible.  Sums to 1 always. *)

val predicted :
  mu:float -> rho:float -> speeds:float array -> alloc:float array ->
  [ `Mean_response_time | `Mean_response_ratio ] -> float
(** Convenience wrapper: predicted metric at system utilisation [rho]. *)
