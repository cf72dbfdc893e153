(** Abstract continuous distributions.

    A distribution is a sampling function bundled with its analytic first
    two moments.  Concrete constructors live in the sibling modules
    ({!Exponential}, {!Hyperexponential}, {!Bounded_pareto}, …); workload
    generators and tests consume this uniform view. *)

type t = {
  name : string;  (** Human-readable description, e.g. ["BP(10,21600,1)"]. *)
  mean : float;  (** Analytic mean. *)
  variance : float;  (** Analytic variance ([infinity] allowed). *)
  sample : Statsched_prng.Rng.t -> float;  (** Draw one variate. *)
  fill : Statsched_prng.Rng.t -> Float.Array.t -> unit;
      (** Overwrite every slot with a fresh variate, drawing exactly as
          [Float.Array.length] calls of [sample] would; a constructor may
          specialise it to store raw doubles, where [sample] must box
          each result. *)
}

val name : t -> string
val mean : t -> float
val variance : t -> float

val std : t -> float
(** Standard deviation, [sqrt variance]. *)

val cv : t -> float
(** Coefficient of variation, [std t /. mean t]. *)

val scv : t -> float
(** Squared coefficient of variation, [variance /. mean²]. *)

val sample : t -> Statsched_prng.Rng.t -> float
(** [sample t g] draws one variate using stream [g]. *)

val fill : t -> Statsched_prng.Rng.t -> Float.Array.t -> unit
(** [fill t g a] sets [a.(0)], [a.(1)], … to successive draws from [g]:
    the same values, in the same order, as that many calls of {!sample}. *)

val sample_array : t -> Statsched_prng.Rng.t -> int -> float array
(** [sample_array t g n] draws [n] variates. *)

val scaled : t -> float -> t
(** [scaled t c] is the distribution of [c·X] for [X ~ t].  [c > 0]. *)

val make :
  ?fill:(Statsched_prng.Rng.t -> Float.Array.t -> unit) ->
  name:string -> mean:float -> variance:float ->
  (Statsched_prng.Rng.t -> float) -> t
(** Escape hatch for user-defined distributions.  [fill] defaults to
    calling the sampler once per slot; a specialised one must draw the
    same values. *)
