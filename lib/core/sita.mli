(** Size-Interval Task Assignment with Equal load (SITA-E).

    The size-aware baseline of Crovella, Harchol-Balter & Murta (the
    paper's reference [5]): partition the job-size range into contiguous
    bands and dedicate one computer to each band, choosing the cutoffs so
    that every computer carries a load share proportional to its speed.
    Unlike the paper's static policies this requires knowing each job's
    size at dispatch time — implementing it quantifies exactly what that
    extra knowledge buys (the paper's §1 points out its own schemes do
    not need it).

    Band-to-computer order is a policy choice: [`Small_to_fast] sends the
    smallest jobs to the fastest computers (best for the mean response
    {e ratio}, which weights small jobs heavily); [`Small_to_slow] is the
    classic arrangement for FCFS hosts (isolates the giant jobs on the
    fast machines). *)

type t

val build_bounded_pareto :
  Statsched_dist.Bounded_pareto.params ->
  speeds:float array ->
  small_to:[ `Fast | `Slow ] ->
  t
(** Cutoffs computed from the Bounded-Pareto closed-form partial means by
    bisection: band [i]'s expected work share equals its computer's speed
    share to within 1e-9.

    @raise Invalid_argument on invalid parameters or speeds. *)

val select : t -> size:float -> int
(** Computer index for a job of the given size.  Sizes outside the band
    range clamp to the extreme bands. *)

val cutoffs : t -> float array
(** Interior cutoffs, ascending ([n − 1] values for [n] computers). *)

val assignment : t -> int array
(** [assignment t].(b) is the computer serving band [b] (bands ascend in
    size). *)

val expected_shares : t -> Statsched_dist.Bounded_pareto.params -> float array
(** Per-computer expected work share under the given size distribution —
    for verifying the equal-load property. *)
