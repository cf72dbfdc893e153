module Engine = Statsched_des.Engine

exception Violation of { invariant : string; message : string }

let () =
  Printexc.register_printer (function
    | Violation { invariant; message } ->
      Some (Printf.sprintf "Sanitize.Violation(%s): %s" invariant message)
    | _ -> None)

let fail invariant fmt =
  Printf.ksprintf (fun message -> raise (Violation { invariant; message })) fmt

let enabled_from_env () =
  match Sys.getenv_opt "STATSCHED_SANITIZE" with
  | None -> false
  | Some v -> (
    match String.lowercase_ascii v with
    | "" | "0" | "false" | "no" | "off" -> false
    | _ -> true)

type t = {
  mutable last_time : float;
  mutable arrived : int;
  mutable completed : int;
  mutable dropped : int;
}

let create () = { last_time = neg_infinity; arrived = 0; completed = 0; dropped = 0 }

let check_time t ~now =
  if Float.is_nan now then fail "clock-monotonicity" "simulation clock is NaN";
  if now < t.last_time then
    fail "clock-monotonicity" "clock moved backwards: %.17g after %.17g" now t.last_time;
  t.last_time <- now

let check_engine t engine =
  check_time t ~now:(Engine.now engine);
  if not (Engine.heap_ordered engine) then
    fail "event-heap-order"
      "future-event list or completion-slot index out of order (%d events pending \
       at t=%.17g)"
      (Engine.pending_events engine) (Engine.now engine)

let on_arrival t = t.arrived <- t.arrived + 1
let on_completion t = t.completed <- t.completed + 1
let on_drop t = t.dropped <- t.dropped + 1

let check_conservation t ~in_system =
  if in_system < 0 then
    fail "job-conservation" "negative in-system count (%d)" in_system;
  let accounted = t.completed + in_system + t.dropped in
  if t.arrived <> accounted then
    fail "job-conservation"
      "arrived (%d) <> completed (%d) + in-system (%d) + dropped (%d) = %d"
      t.arrived t.completed in_system t.dropped accounted

let check_allocation ?(label = "allocation") ?(saturation = true) ~rho ~speeds alloc =
  let n = Array.length speeds in
  if Array.length alloc <> n then
    fail "allocation-feasibility" "%s: %d fractions for %d computers" label
      (Array.length alloc) n;
  let total = Array.fold_left ( +. ) 0.0 speeds in
  let lambda = rho *. total in
  let sum = ref 0.0 in
  Array.iteri
    (fun i a ->
      if not (Float.is_finite a) then
        fail "allocation-feasibility" "%s: alpha(%d) = %g is not finite" label i a;
      if a < -1e-12 then
        fail "allocation-feasibility" "%s: alpha(%d) = %g is negative" label i a;
      sum := !sum +. a;
      (* Theorem 1's stability condition, mu = 1: alpha_i * lambda < s_i.
         Skipped when the caller deliberately runs a mis-estimated
         allocation (the Figure 6 sensitivity experiments). *)
      if saturation && a *. lambda >= speeds.(i) then
        fail "allocation-feasibility"
          "%s: computer %d saturated: alpha*lambda = %.6g >= speed %.6g (Theorem 1)"
          label i (a *. lambda) speeds.(i))
    alloc;
  if abs_float (!sum -. 1.0) > 1e-6 then
    fail "allocation-feasibility" "%s: fractions sum to %.9g, not 1" label !sum
