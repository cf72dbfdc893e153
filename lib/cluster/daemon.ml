module Clock = Statsched_obs.Clock
module Http = Statsched_obs.Http
type t = {
  driver : Simulation.Driver.t;
  telemetry : Telemetry.t;
  clock : unit -> float;
  backlog_limit : int;
  (* Serialises the HTTP server thread, which runs every request
     handler inline from its one select loop, against SIGTERM-driven
     drains on the main thread. *)
  mutex : Mutex.t;
  mutable draining : bool;
  mutable drained : bool;
  mutable outcome : Simulation.result option;
  (* Virtual time at which the drain completed — the run's true end. *)
  mutable end_time : float;
}

let create ?journal ?(time_scale = 1.0) ?(backlog_limit = 1000) ?clock cfg =
  if not (time_scale > 0.0) then invalid_arg "Daemon.create: time_scale <= 0";
  if backlog_limit < 1 then invalid_arg "Daemon.create: backlog_limit < 1";
  let telemetry = Telemetry.create ?journal cfg in
  (* Telemetry hooks copy job fields out synchronously, so each store
     slot keeps one hook record and the steady-state dispatch path makes
     no record per job. *)
  let driver =
    Simulation.Driver.create ~hooks_retain_jobs:false
      ~metric_histograms:(Telemetry.histograms telemetry)
      ~on_engine:(Telemetry.set_engine telemetry)
      ~on_dispatch:(Telemetry.on_dispatch telemetry)
      ~on_completion:(Telemetry.on_completion telemetry)
      ~on_drop:(Telemetry.on_drop telemetry)
      ~on_rate_change:(Telemetry.on_rate_change telemetry)
      ~arrivals:`External cfg
  in
  let clock =
    match clock with
    | Some f -> f
    | None ->
      (* Virtual time = scaled wall time since start-up; the only
         wall-clock read goes through {!Statsched_obs.Clock}. *)
      let start = Clock.now () in
      fun () -> (Clock.now () -. start) *. time_scale
  in
  {
    driver;
    telemetry;
    clock;
    backlog_limit;
    mutex = Mutex.create ();
    draining = false;
    drained = false;
    outcome = None;
    end_time = 0.0;
  }

let telemetry t = t.telemetry
let driver t = t.driver
let virtual_now t = t.clock ()
let backlog t = Simulation.Driver.in_system t.driver
let is_drained t = t.drained
let result t = t.outcome

(* Catch the event sequence up with the virtual clock.  Monotone, so
   calling it on every request is safe whatever order requests land. *)
let advance_locked t = Simulation.Driver.advance t.driver ~to_:(t.clock ())

let drain_locked t =
  if not t.drained then begin
    advance_locked t;
    t.draining <- true;
    Simulation.Driver.drain t.driver;
    t.end_time <- Simulation.Driver.now t.driver;
    (* An empty run has nothing to summarise — [finalize] would refuse —
       so it just ends; the journal then carries no summary lines. *)
    if Simulation.Driver.measured t.driver > 0 then begin
      let r = Simulation.Driver.finalize t.driver in
      Telemetry.finalize ~horizon:t.end_time t.telemetry r;
      t.outcome <- Some r
    end;
    t.drained <- true
  end;
  Http.json ~status:200
    (Printf.sprintf
       "{\"drained\":true,\"sim_time\":%.17g,\"arrivals\":%d,\"completions\":%d,\"jobs_measured\":%d}"
       (Simulation.Driver.now t.driver)
       (Simulation.Driver.arrivals t.driver)
       (Simulation.Driver.completions t.driver)
       (Simulation.Driver.measured t.driver))

(* The primitive behind [Printf]'s [%.17g], called directly: the 202
   is built once per accepted job. *)
external format_float : string -> float -> string = "caml_format_float"

let submit_locked t body =
  if t.draining then Http.text ~status:503 "draining, not accepting jobs\n"
  else if backlog t >= t.backlog_limit then
    Http.text ~status:429
      (Printf.sprintf "backlog full (%d jobs in system, limit %d)\n"
         (backlog t) t.backlog_limit)
  else
    match float_of_string_opt (String.trim body) with
    | Some size when size > 0.0 && Float.is_finite size ->
      advance_locked t;
      let computer = Simulation.Driver.submit t.driver ~size in
      Http.json ~status:202
        (String.concat ""
           [
             "{\"id\":";
             string_of_int (Simulation.Driver.arrivals t.driver);
             ",\"computer\":";
             string_of_int computer;
             ",\"time\":";
             format_float "%.17g" (Simulation.Driver.now t.driver);
             "}";
           ])
    | Some _ | None ->
      Http.text ~status:400
        "body must be one positive number: the job's service demand in \
         seconds on a speed-1 computer\n"

let set_policy_locked t body =
  if t.draining then Http.text ~status:503 "draining, policy frozen\n"
  else
    match Scheduler.of_name (String.trim body) with
    | Error msg -> Http.text ~status:400 (msg ^ "\n")
    | Ok kind -> (
      advance_locked t;
      (* A policy whose construction fails — e.g. an infeasible static
         allocation under sanitizers — leaves the old one installed. *)
      match Simulation.Driver.set_scheduler t.driver kind with
      | () -> Http.text (Scheduler.name kind ^ "\n")
      | exception Invalid_argument msg -> Http.text ~status:400 (msg ^ "\n"))

let handle_locked t (req : Http.request) =
  let scraped =
    if String.equal req.Http.meth "GET" then
      Telemetry.scrape
        ~before_state:(fun () -> advance_locked t)
        t.telemetry req.Http.path
    else None
  in
  match (scraped, req.Http.meth, req.Http.path) with
  | Some response, _, _ -> response
  | None, "GET", "/policy" ->
    Http.text (Scheduler.name (Simulation.Driver.scheduler t.driver) ^ "\n")
  | None, "POST", "/jobs" -> submit_locked t req.Http.body
  | None, "PUT", "/policy" -> set_policy_locked t req.Http.body
  | None, "POST", "/drain" -> drain_locked t
  | None, _, ("/healthz" | "/metrics" | "/state" | "/policy" | "/jobs" | "/drain")
    ->
    Http.text ~status:405 "method not allowed\n"
  | None, _, _ -> Http.text ~status:404 "not found\n"

let handle_request t req =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> handle_locked t req)

let drain t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> ignore (drain_locked t))

let write_journal t path =
  match t.outcome with
  | Some r ->
    Telemetry.write_journal ~horizon:t.end_time t.telemetry r path;
    true
  | None -> false

let serve ?addr ?read_timeout t ~port =
  Http.serve_requests ?addr ?read_timeout ~port (handle_request t)
