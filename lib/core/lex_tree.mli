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

val set : t -> int -> prim:float -> sec:float -> unit
(** Overwrite leaf [i]'s pair; O(log n).  Inlined into its callers, so
    the floats reach the leaf stores unboxed and an update allocates
    nothing. *)

val prim : t -> int -> float
(** Leaf [i]'s primary key. *)

val fill : t -> prim:float -> sec:float -> unit
(** Set every leaf to the same pair and rebuild in O(n). *)

val min_prim : t -> float
(** Primary key of the winning leaf ([+infinity] when all are). *)

val min_sec : t -> float
(** Secondary key of the winning leaf. *)

val argmin : t -> int
(** Leaf index minimising [(primary, secondary, index)]. *)
