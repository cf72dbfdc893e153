(** Random-number streams for the simulator.

    A thin, allocation-free facade over {!Xoshiro256} exposing the primitive
    draws the rest of the library needs.  Every stochastic component of the
    simulator takes an explicit [Rng.t]; nothing reads hidden global state,
    so runs are reproducible from a single seed and replications use
    provably disjoint substreams. *)

type t
(** A mutable random stream. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes a fresh stream.  Default seed is a fixed
    constant so that unseeded programs are still deterministic. *)

val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> t
(** [split g] returns a new stream independent of the future output of
    [g]: the child is seeded from two draws of [g].  Use for decoupling
    model components (arrivals vs. service vs. delays) within a run. *)

val substream : t -> int -> t
(** [substream g k] is replication stream [k]: [g] jumped ahead [k]×2{^128}
    draws.  [g] is unchanged.  See {!Xoshiro256.substream}. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform g a b] is uniform in [\[a, b)].  [a <= b] required. *)

val int : t -> int -> int
(** [int g n] is uniform in [\[0, n)].  [n > 0] required. *)

val bits64 : t -> int64
(** 64 raw uniform bits. *)

val bits53 : t -> int
(** The top 53 bits of one draw as an immediate [int]: consumes the
    same stream position as {!float} and satisfies
    [float g = float_of_int (bits53 g) /. 2.{^53}].  For allocation-
    free threshold tests ([float g < p] reformulated as
    [bits53 g < ceil (p *. 2.{^53})], exact because scaling by a power
    of two is). *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
