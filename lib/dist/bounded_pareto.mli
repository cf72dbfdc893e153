(** Bounded Pareto distribution B(k, p, α).

    The paper's job-size model (Section 4.1): heavy-tailed sizes truncated
    to [\[k, p\]], with density
    [f(x) = α·kᵅ / (1 − (k/p)ᵅ) · x^(−α−1)].  The paper's defaults are
    [k = 10 s], [p = 21600 s], [α = 1.0], giving mean ≈ 76.8 s and a very
    large coefficient of variation — a small number of huge jobs carry a
    significant fraction of the load. *)

type params = { k : float; p : float; alpha : float }

val validate : params -> unit
(** @raise Invalid_argument unless [0 < k < p] and [alpha > 0]. *)

val paper_default : params
(** [{ k = 10.0; p = 21600.0; alpha = 1.0 }]. *)

val raw_moment : params -> int -> float
(** [raw_moment prm j] is E\[Xʲ\] in closed form (handles the [α = j]
    logarithmic case). *)

val quantile : params -> float -> float
(** [quantile prm u] is the inverse CDF at [u ∈ [0, 1)]. *)

val cdf : params -> float -> float
(** [cdf prm x] is P(X ≤ x), clamped to [\[0, 1\]] outside the support. *)

val partial_mean : params -> lo:float -> hi:float -> float
(** [partial_mean prm ~lo ~hi] is E\[X·1\{lo ≤ X < hi\}\] — the expected
    work contributed by jobs in the size band [\[lo, hi)].  Bounds are
    clamped to the support.  Used to build size-interval (SITA-E) cutoffs
    that equalise the load carried by each band.

    @raise Invalid_argument if [lo > hi]. *)

val sample : params -> Statsched_prng.Rng.t -> float
(** One variate by inverse transform. *)

val create : params -> Distribution.t
(** Bundle as a {!Distribution.t} with analytic mean and variance.  Its
    [fill] stores raw doubles, the same values [sample] returns boxed. *)

val create_paper_default : unit -> Distribution.t
(** [create paper_default]. *)
