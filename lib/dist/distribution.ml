module Rng = Statsched_prng.Rng

type t = {
  name : string;
  mean : float;
  variance : float;
  sample : Rng.t -> float;
  fill : Rng.t -> Float.Array.t -> unit;
}

let name t = t.name
let mean t = t.mean
let variance t = t.variance
let std t = sqrt t.variance
let cv t = std t /. t.mean
let scv t = t.variance /. (t.mean *. t.mean)
let sample t g = t.sample g
let fill t g a = t.fill g a

let fill_by sample g a =
  for i = 0 to Float.Array.length a - 1 do
    Float.Array.unsafe_set a i (sample g)
  done

let sample_array t g n = Array.init n (fun _ -> t.sample g)

let scaled t c =
  if c <= 0.0 then invalid_arg "Distribution.scaled: c <= 0";
  {
    name = Printf.sprintf "%g*%s" c t.name;
    mean = c *. t.mean;
    variance = c *. c *. t.variance;
    sample = (fun g -> c *. t.sample g);
    fill =
      (fun g a ->
        t.fill g a;
        for i = 0 to Float.Array.length a - 1 do
          Float.Array.unsafe_set a i (c *. Float.Array.unsafe_get a i)
        done);
  }

let make ?fill ~name ~mean ~variance sample =
  let fill = match fill with Some f -> f | None -> fill_by sample in
  { name; mean; variance; sample; fill }
