type interval = {
  mean : float;
  half_width : float;
  confidence : float;
  replications : int;
}

let of_samples ?(confidence = 0.95) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Confidence.of_samples: empty";
  let w = Welford.create () in
  Array.iter (Welford.add w) xs;
  let mean = Welford.mean w in
  let half_width =
    if n < 2 then nan
    else begin
      let t = Student_t.critical ~df:(n - 1) ~confidence in
      t *. Welford.std w /. sqrt (float_of_int n)
    end
  in
  { mean; half_width; confidence; replications = n }

let lower i = i.mean -. i.half_width

let upper i = i.mean +. i.half_width

let pp fmt i =
  (* A single replication has no width estimate ([half_width = nan]);
     print the point estimate alone rather than "m ± nan". *)
  if Float.is_nan i.half_width then Format.fprintf fmt "%.6g" i.mean
  else Format.fprintf fmt "%.6g ± %.2g" i.mean i.half_width
