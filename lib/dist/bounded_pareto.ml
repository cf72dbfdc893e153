module Rng = Statsched_prng.Rng

type params = { k : float; p : float; alpha : float }

let validate { k; p; alpha } =
  if not (0.0 < k && k < p) then invalid_arg "Bounded_pareto: need 0 < k < p";
  if alpha <= 0.0 then invalid_arg "Bounded_pareto: need alpha > 0"

let paper_default = { k = 10.0; p = 21600.0; alpha = 1.0 }

let[@inline] truncation { k; p; alpha } = 1.0 -. ((k /. p) ** alpha)

(* E[X^j] = alpha k^alpha (p^{j-alpha} - k^{j-alpha}) / ((j-alpha)(1-(k/p)^alpha))
   with the limit alpha k^alpha ln(p/k) / (1-(k/p)^alpha) when alpha = j. *)
let raw_moment ({ k; p; alpha } as prm) j =
  validate prm;
  if j < 0 then invalid_arg "Bounded_pareto.raw_moment: negative order";
  let j = float_of_int j in
  let trunc = truncation prm in
  if abs_float (alpha -. j) < 1e-12 then
    alpha *. (k ** alpha) *. log (p /. k) /. trunc
    /. (k ** (alpha -. j))
  else
    alpha *. (k ** alpha) *. ((p ** (j -. alpha)) -. (k ** (j -. alpha)))
    /. ((j -. alpha) *. trunc)

(* The inverse CDF with its constants taken apart, so [create]'s sampler
   computes them once and keeps the draw and the result unboxed.  At the
   paper's alpha = 1 the power is the identity ([pow (x, 1.0)] returns x
   exactly), so that case divides directly and skips the libm call. *)
let[@inline] invert ~k ~trunc ~inv_alpha u =
  let x = 1.0 -. (u *. trunc) in
  if Float.equal inv_alpha 1.0 then k /. x else k /. (x ** inv_alpha)

let quantile ({ k; alpha; _ } as prm) u =
  validate prm;
  if not (0.0 <= u && u < 1.0) then invalid_arg "Bounded_pareto.quantile: u outside [0,1)";
  invert ~k ~trunc:(truncation prm) ~inv_alpha:(1.0 /. alpha) u

let cdf ({ k; p; alpha } as prm) x =
  validate prm;
  if x <= k then 0.0
  else if x >= p then 1.0
  else begin
    let trunc = truncation prm in
    (1.0 -. ((k /. x) ** alpha)) /. trunc
  end

(* ∫_lo^hi x·f(x) dx with f the bounded-Pareto density; the antiderivative
   of x·f is α k^α/(1-(k/p)^α) · x^(1-α)/(1-α), with a log at α = 1. *)
let partial_mean ({ k; p; alpha } as prm) ~lo ~hi =
  validate prm;
  if lo > hi then invalid_arg "Bounded_pareto.partial_mean: lo > hi";
  let lo = max k lo and hi = min p hi in
  if lo >= hi then 0.0
  else begin
    let trunc = truncation prm in
    let c = alpha *. (k ** alpha) /. trunc in
    if abs_float (alpha -. 1.0) < 1e-12 then c *. log (hi /. lo)
    else c /. (1.0 -. alpha) *. ((hi ** (1.0 -. alpha)) -. (lo ** (1.0 -. alpha)))
  end

let sample prm g = quantile prm (Rng.float g)

let create ({ k; p; alpha } as prm) =
  validate prm;
  let mean = raw_moment prm 1 in
  let second = raw_moment prm 2 in
  let trunc = truncation prm and inv_alpha = 1.0 /. alpha in
  (* [fill] stores raw doubles where [sample] must box its result; both
     apply the same inverse to the same draws. *)
  Distribution.make
    ~name:(Printf.sprintf "BP(%g,%g,%g)" k p alpha)
    ~mean
    ~variance:(second -. (mean *. mean))
    ~fill:(fun g a ->
      for i = 0 to Float.Array.length a - 1 do
        Float.Array.unsafe_set a i (invert ~k ~trunc ~inv_alpha (Rng.float g))
      done)
    (fun g -> invert ~k ~trunc ~inv_alpha (Rng.float g))

let create_paper_default () = create paper_default
