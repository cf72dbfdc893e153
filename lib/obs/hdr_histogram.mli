(** Mergeable log-linear (HDR-style) histogram over positive floats.

    The trackable range [\[lo, hi)] is divided into octaves (powers of two
    above [lo]), each split into [sub_count] equal-width linear sub-buckets
    — so bucket width grows with the value and the {e relative} error of
    any recorded observation is bounded by [1 / sub_count] everywhere in
    the range.  With the default [sub_count = 32] that is ~3% relative
    resolution across arbitrarily many orders of magnitude, which is what
    tail quantiles of heavy-tailed response-time distributions need, and
    any quantile can be read afterwards.

    Observations below [lo] or at/above [hi] are counted in underflow /
    overflow (and still contribute to [count], [sum], [min]/[max]).
    Histograms with identical layouts merge exactly: merging per-shard
    histograms loses nothing. *)

type t

val create : ?sub_count:int -> lo:float -> hi:float -> unit -> t
(** [create ~lo ~hi ()] tracks [\[lo, hi)] with [sub_count] (default 32)
    linear sub-buckets per octave.

    @raise Invalid_argument if [lo <= 0], [hi <= lo] or [sub_count <= 0]. *)

val add : t -> float -> unit
(** Record one observation.  @raise Invalid_argument on NaN. *)

val copy : t -> t
(** An independent histogram with the same layout and contents —
    mutating either afterwards leaves the other untouched.  Useful as the
    accumulator seed for a {!merge} fold. *)

val count : t -> int
(** Total observations, including under/overflow. *)

val underflow : t -> int
val overflow : t -> int

val sum : t -> float
val mean : t -> float
(** [nan] when empty. *)

val min_value : t -> float
(** Smallest observation recorded; [nan] when empty. *)

val max_value : t -> float
(** Largest observation recorded; [nan] when empty. *)

val quantile : t -> float -> float
(** [quantile h q] for [0 < q < 1], by linear interpolation inside the
    containing bucket — within one bucket width of the exact empirical
    quantile whenever that quantile lies in [\[lo, hi)].  Ranks falling
    into underflow clamp to [lo]; ranks in overflow return the exact
    maximum observation.  [nan] when empty.

    @raise Invalid_argument if [q] is outside (0,1). *)

val bin_count : t -> int

val bin_range : t -> int -> float * float
(** Half-open value interval covered by bin [i]. *)

val bin_value : t -> int -> int

val bin_index : t -> float -> int option
(** Containing bin of a value, [None] if outside [\[lo, hi)]. *)

val same_layout : t -> t -> bool
(** Whether two histograms share [lo], [hi] and [sub_count] (and so can
    be merged exactly). *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds every recorded observation of [src] to [into]
    exactly (bucket-wise).

    @raise Invalid_argument if the layouts ([lo], [hi], [sub_count])
    differ. *)

val iter_nonempty : t -> (upper:float -> count:int -> unit) -> unit
(** Iterate the non-empty bins in increasing value order as
    [(upper bound, occupancy)] pairs — the shape a cumulative-bucket
    exporter (Prometheus) wants.  Underflow is reported first with upper
    bound [lo]; overflow is {e not} reported (it is [count] minus the
    cumulative total). *)
