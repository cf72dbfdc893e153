(** Flat tournament tree: O(log n) updates, O(1) minimum and tie count,
    and an allocation-free O(log n) descent to the k-th tied-minimum
    leaf.

    The index full-information Least-Load leans on: {!Least_load} keeps
    one leaf per computer (normalised load, [+inf] when unavailable) so
    a dispatch decision is a root read plus a counted descent instead of
    an O(n) scan.

    Internal nodes store {e exact copies} of leaf values (no arithmetic),
    so [Float.equal] against the root minimum is an exact membership
    test — tie selection is bit-faithful to a linear scan.

    Each node also carries the number of leaves in its subtree tied with
    that subtree's minimum, so the tied-set size is an O(1) read
    ({!min_count}) and its k-th member an O(log n) counted descent
    ({!nth_tied}) — a uniform tie-break costs one RNG draw total instead
    of one per tied leaf. *)

type t

val create : int -> t
(** [create n] builds a tree over [n] leaves, all at [+infinity].

    @raise Invalid_argument if [n < 1]. *)

val set : t -> int -> float -> unit
(** [set t i v] overwrites leaf [i]; O(log n).  Inlined into its
    callers, so the float reaches the leaf store unboxed and an update
    allocates nothing. *)

val min_value : t -> float
(** Minimum over all leaves ([+infinity] when all leaves are). *)

val min_count : t -> int
(** Number of leaves [Float.equal] to {!min_value}; O(1).

    Caveat: when {!min_value} is [+infinity] the count includes the
    internal padding leaves (indices [>= n]), so it is only
    meaningful while at least one leaf is finite. *)

val nth_tied : t -> k:int -> int
(** [nth_tied t ~k] is the [k]-th (0-indexed, ascending) leaf index
    tied with {!min_value}; a single O(log n) counted descent, no
    allocation.  Requires a finite {!min_value} to be meaningful (see
    the {!min_count} padding caveat).

    @raise Invalid_argument unless [0 <= k < min_count t]. *)
