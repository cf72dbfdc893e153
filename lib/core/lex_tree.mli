(** Flat tournament tree over lexicographic [(primary, secondary)]
    float pairs, breaking full ties toward the smallest leaf index.

    The argmin under the triple [(primary, secondary, index)] is an
    O(1) root read; a leaf update is O(log n) and allocation-free.
    Internal nodes store {e exact copies} of leaf pairs (no
    arithmetic), so selections are bit-faithful to a linear scan under
    the same order — the property the lazy round-robin dispatcher's
    eager-equivalence proof rests on.  Values must never be NaN. *)

type t

val create : int -> t
(** [create n] builds a tree over [n] leaves, all at
    [(+infinity, +infinity)].

    @raise Invalid_argument if [n < 1]. *)

val length : t -> int
(** Number of leaves. *)

val set : t -> int -> prim:float -> sec:float -> unit
(** Overwrite leaf [i]'s pair; O(log n). *)

(** {1 Raw leaf access}

    Allocation-free update path, as in {!Min_tree}: dev builds compile
    with [-opaque], so [set]'s float parameters are boxed at every
    cross-module call.  Hot callers store the pair directly into
    {!prim_leaves}/{!sec_leaves} at {!leaf_pos} and then call
    {!refresh}.  Only leaf slots may be written. *)

val prim_leaves : t -> Float.Array.t
val sec_leaves : t -> Float.Array.t
val leaf_pos : t -> int -> int

val refresh : t -> int -> unit
(** Recompute the spine above leaf [i] after direct writes; O(log n). *)

val fill : t -> prim:float -> sec:float -> unit
(** Set every leaf to the same pair and rebuild in O(n). *)

val min_prim : t -> float
(** Primary key of the winning leaf ([+infinity] when all are). *)

val min_sec : t -> float
(** Secondary key of the winning leaf. *)

val argmin : t -> int
(** Leaf index minimising [(primary, secondary, index)]. *)
