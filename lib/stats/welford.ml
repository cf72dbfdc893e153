(* All-float record: the count is kept as a float so OCaml stores the
   record flat and [add] writes raw doubles.  A [mutable n : int] field
   would make this a mixed record, boxing every float assignment — five
   allocations per observation on the per-job stats path.  Counts stay
   exact in a double up to 2^53 observations. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations from the running mean *)
  mutable minv : float;
  mutable maxv : float;
}

let create () = { n = 0.0; mean = 0.0; m2 = 0.0; minv = infinity; maxv = neg_infinity }

let copy t = { n = t.n; mean = t.mean; m2 = t.m2; minv = t.minv; maxv = t.maxv }

let reset t =
  t.n <- 0.0;
  t.mean <- 0.0;
  t.m2 <- 0.0;
  t.minv <- infinity;
  t.maxv <- neg_infinity

let[@inline] [@schedsim.hot] add t x =
  let n = t.n +. 1.0 in
  t.n <- n;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.minv then t.minv <- x;
  if x > t.maxv then t.maxv <- x

let merge a b =
  if Float.equal a.n 0.0 then copy b
  else if Float.equal b.n 0.0 then copy a
  else begin
    let nf = a.n +. b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. b.n /. nf) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. a.n *. b.n /. nf) in
    { n = nf; mean; m2; minv = min a.minv b.minv; maxv = max a.maxv b.maxv }
  end

let count t = int_of_float t.n

let mean t = if Float.equal t.n 0.0 then nan else t.mean

let variance t = if t.n < 2.0 then nan else t.m2 /. (t.n -. 1.0)

let population_variance t = if Float.equal t.n 0.0 then nan else t.m2 /. t.n

let std t = sqrt (variance t)

let population_std t = sqrt (population_variance t)

let min_value t = if Float.equal t.n 0.0 then nan else t.minv

let max_value t = if Float.equal t.n 0.0 then nan else t.maxv
