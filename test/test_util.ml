(* Shared helpers for the test suite. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.is_nan expected then
    Alcotest.(check bool) (msg ^ " (nan)") true (Float.is_nan actual)
  else if not (Float.is_finite expected) then
    Alcotest.(check bool) (msg ^ " (infinite)") true (expected = actual)
  else
    Alcotest.(check bool)
      (Printf.sprintf "%s: expected %.12g, got %.12g (eps %g)" msg expected actual eps)
      true
      (abs_float (expected -. actual) <= eps)

(* Relative tolerance comparison for simulation-vs-theory checks. *)
let check_close ?(rel = 0.05) msg expected actual =
  let err = abs_float (expected -. actual) /. max 1e-12 (abs_float expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected ~%.6g, got %.6g (rel err %.3g > %g)" msg expected
       actual err rel)
    true (err <= rel)

let check_array ?(eps = 1e-9) msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri (fun i e -> check_float ~eps (Printf.sprintf "%s[%d]" msg i) e actual.(i)) expected

let rng ?(seed = 7L) () = Statsched_prng.Rng.create ~seed ()

(* The fields of a job-store slot as a record, for assertions. *)
let job_of_slot store s =
  let module St = Statsched_queueing.Job_store in
  {
    Statsched_queueing.Job.id = St.id store s;
    size = St.size store s;
    arrival = St.arrival store s;
    computer = St.computer store s;
    start = St.start store s;
    completion = St.completion store s;
  }

let test name f = Alcotest.test_case name `Quick f

let slow_test name f = Alcotest.test_case name `Slow f

let qcheck ?count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ~name gen prop)

(* Generator for a valid speed vector: 1-12 computers, speeds in [0.1, 32]. *)
let speeds_gen =
  QCheck2.Gen.(
    let speed = map (fun x -> 0.1 +. (31.9 *. x)) (float_bound_inclusive 1.0) in
    map Array.of_list (list_size (int_range 1 12) speed))

(* Utilisation strictly inside (0, 1), kept away from the edges. *)
let rho_gen = QCheck2.Gen.(map (fun x -> 0.02 +. (0.96 *. x)) (float_bound_inclusive 1.0))
