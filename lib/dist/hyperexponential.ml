module Rng = Statsched_prng.Rng

let check_params probs rates =
  let n = Array.length probs in
  if n = 0 || Array.length rates <> n then
    invalid_arg "Hyperexponential.create: probs/rates length mismatch";
  let sum = Array.fold_left ( +. ) 0.0 probs in
  if abs_float (sum -. 1.0) > 1e-9 then
    invalid_arg "Hyperexponential.create: probabilities must sum to 1";
  Array.iter
    (fun p -> if p < 0.0 then invalid_arg "Hyperexponential.create: negative probability")
    probs;
  Array.iter
    (fun r -> if r <= 0.0 then invalid_arg "Hyperexponential.create: non-positive rate")
    rates

let moments probs rates =
  let n = Array.length probs in
  let mean = ref 0.0 and second = ref 0.0 in
  for i = 0 to n - 1 do
    mean := !mean +. (probs.(i) /. rates.(i));
    second := !second +. (2.0 *. probs.(i) /. (rates.(i) *. rates.(i)))
  done;
  (!mean, !second -. (!mean *. !mean))

(* Branch selection is a closed module-level function: a [let rec] inside
   [sample] would capture the per-call draw [u] and allocate a fresh
   closure on every sample. *)
let rec branch cum n u i = if i = n - 1 || u < cum.(i) then i else branch cum n u (i + 1)

let create ~probs ~rates =
  check_params probs rates;
  let probs = Array.copy probs and rates = Array.copy rates in
  let mean, variance = moments probs rates in
  let n = Array.length probs in
  (* Cumulative table for branch selection. *)
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. probs.(i);
    cum.(i) <- !acc
  done;
  cum.(n - 1) <- 1.0;
  let name = Printf.sprintf "H%d(mean=%g)" n mean in
  (* The workhorse case is the two-branch H2 (every [fit_cv] call, so
     every paper inter-arrival gap): specialise it so the branch draw
     stays an unboxed local — the generic path boxes [u] to pass it to
     [branch] — and give it a [fill] that stores raw doubles into the
     arrival process's gap buffer instead of boxing each gap. *)
  if n = 2 then begin
    let c0 = cum.(0) and r0 = rates.(0) and r1 = rates.(1) in
    let[@inline] draw g =
      let u = Rng.float g in
      Exponential.sample ~rate:(if u < c0 then r0 else r1) g
    in
    Distribution.make ~name ~mean ~variance
      ~fill:(fun g a ->
        for i = 0 to Float.Array.length a - 1 do
          Float.Array.unsafe_set a i (draw g)
        done)
      (fun g -> draw g)
  end
  else
    Distribution.make ~name ~mean ~variance (fun g ->
        let u = Rng.float g in
        let i = branch cum n u 0 in
        Exponential.sample ~rate:rates.(i) g)

let branch_params ~mean ~cv =
  if mean <= 0.0 then invalid_arg "Hyperexponential.fit_cv: mean <= 0";
  if cv < 1.0 then invalid_arg "Hyperexponential.fit_cv: cv < 1";
  let c2 = cv *. cv in
  let p1 = 0.5 *. (1.0 +. sqrt ((c2 -. 1.0) /. (c2 +. 1.0))) in
  let p2 = 1.0 -. p1 in
  let r1 = 2.0 *. p1 /. mean in
  let r2 = 2.0 *. p2 /. mean in
  ((p1, r1), (p2, r2))

let fit_cv ~mean ~cv =
  if cv > 1.0 then begin
    let (p1, r1), (p2, r2) = branch_params ~mean ~cv in
    let d = create ~probs:[| p1; p2 |] ~rates:[| r1; r2 |] in
    { d with Distribution.name = Printf.sprintf "H2(mean=%g,cv=%g)" mean cv }
  end
  else if cv < 1.0 then invalid_arg "Hyperexponential.fit_cv: cv < 1"
  else (* cv exactly 1: the H2 degenerates to the exponential *)
    Exponential.of_mean mean
