module Engine = Statsched_des.Engine
module Event_queue = Statsched_des.Event_queue
module Tally = Statsched_stats.Tally

(* Mutable float state lives in its own all-float record: OCaml stores
   such records flat, so the per-event updates in [advance]/[reschedule]
   write raw doubles instead of allocating a box per assignment (a mixed
   record would box every [<-] of a float field). *)
type hot = {
  mutable rate : float;  (* fault multiplier on speed; 0 = suspended *)
  mutable vclock : float;
  mutable last_update : float;
  mutable work : float;
}

type t = {
  engine : Engine.t;
  speed : float;
  on_departure : Job.t -> unit;
  active : Job.t Event_queue.t;  (* keyed by virtual finish time *)
  hot : hot;
  mutable completion : Engine.slot;
      (* registered in [create] once the record exists; rescheduling
         re-arms it in place, so the submit/complete cycle creates no
         closures and puts nothing on the engine's event heap *)
  busy : Tally.t;
  occupancy : Tally.t;
  mutable completed : int;
}

(* The helpers below are plain (non-recursive) definitions in dependency
   order so the compiler can inline the small ones into the submit /
   complete cycle; [create] comes last because it closes over
   [on_completion]. *)
let[@inline] in_system t = Event_queue.size t.active

(* Bring virtual time and work counters up to the current instant. *)
let[@inline] advance t =
  let now = Engine.now t.engine in
  let n = in_system t in
  if n > 0 then begin
    let eff = t.speed *. t.hot.rate in
    let elapsed = now -. t.hot.last_update in
    t.hot.vclock <- t.hot.vclock +. (elapsed *. eff /. float_of_int n);
    t.hot.work <- t.hot.work +. (elapsed *. eff)
  end;
  t.hot.last_update <- now

let[@inline] eps t = 1e-9 *. (1.0 +. abs_float t.hot.vclock)

let reschedule t =
  Tally.update t.occupancy ~time:(Engine.now t.engine)
    ~value:(float_of_int (in_system t));
  (* [next_time] is NaN when no job is active; NaN compares false below,
     so the empty case falls through without allocating an option. *)
  let v_min = Event_queue.next_time t.active in
  if Float.is_nan v_min then begin
    Engine.disarm t.engine t.completion;
    Tally.update t.busy ~time:(Engine.now t.engine) ~value:0.0
  end
  else begin
    let eff = t.speed *. t.hot.rate in
    if eff > 0.0 then begin
      Tally.update t.busy ~time:(Engine.now t.engine) ~value:1.0;
      let n = float_of_int (in_system t) in
      let delay = max 0.0 ((v_min -. t.hot.vclock) *. n /. eff) in
      Engine.arm t.engine t.completion ~delay
    end
    else begin
      (* Suspended: virtual time is frozen, no completion can occur. *)
      Engine.disarm t.engine t.completion;
      Tally.update t.busy ~time:(Engine.now t.engine) ~value:0.0
    end
  end

(* Top-level rather than nested in [on_completion]: a [let rec] there
   would capture [t]/[tol] and allocate a closure per completion event. *)
let[@schedsim.hot] rec drain_due t tol forced =
  let v_min = Event_queue.next_time t.active in
  (* NaN (empty queue) fails the comparison; [pop_step] guards the
     forced case. *)
  if forced || v_min <= t.hot.vclock +. tol then
    if Event_queue.pop_step t.active then begin
      let job = Event_queue.last_payload t.active in
      job.Job.completion <- Engine.now t.engine;
      t.completed <- t.completed + 1;
      t.on_departure job;
      drain_due t tol false
    end

let on_completion t =
  advance t;
  let tol = eps t in
  (* Float round-off can leave the head a hair beyond the virtual clock;
     force at least one departure so the simulation always progresses. *)
  let head_ready = Event_queue.next_time t.active <= t.hot.vclock +. tol in
  drain_due t tol (not head_ready);
  reschedule t

let create ~engine ~speed ~on_departure () =
  if speed <= 0.0 then invalid_arg "Ps_server.create: speed <= 0";
  let t =
    {
      engine;
      speed;
      on_departure;
      active = Event_queue.create ();
      hot = { rate = 1.0; vclock = 0.0; last_update = Engine.now engine; work = 0.0 };
      completion = Engine.no_slot;
      busy = Tally.create ~start_time:(Engine.now engine) ();
      occupancy = Tally.create ~start_time:(Engine.now engine) ();
      completed = 0;
    }
  in
  t.completion <- Engine.slot engine (fun _ -> on_completion t);
  t

let submit t job =
  advance t;
  let now = Engine.now t.engine in
  if job.Job.start < 0.0 then job.Job.start <- now;
  ignore (Event_queue.add t.active ~time:(t.hot.vclock +. job.Job.size) job);
  Tally.update t.busy ~time:now ~value:1.0;
  reschedule t

let utilization t =
  Tally.advance t.busy ~time:(Engine.now t.engine);
  let u = Tally.time_average t.busy in
  if Float.is_nan u then 0.0 else u

let mean_in_system t =
  Tally.advance t.occupancy ~time:(Engine.now t.engine);
  let l = Tally.time_average t.occupancy in
  if Float.is_nan l then 0.0 else l

let completed t = t.completed

let work_done t =
  advance t;
  t.hot.work

let set_rate t r =
  if r < 0.0 then invalid_arg "Ps_server.set_rate: rate < 0";
  advance t;
  t.hot.rate <- r;
  reschedule t

let drain t =
  advance t;
  let rec take acc =
    match Event_queue.pop t.active with
    | Some (_, job) -> take (job :: acc)
    | None -> List.rev acc
  in
  let jobs = take [] in
  reschedule t;
  jobs

let reset_stats t =
  advance t;
  Tally.reset_at t.busy ~time:(Engine.now t.engine);
  Tally.update t.occupancy ~time:(Engine.now t.engine)
    ~value:(float_of_int (in_system t));
  Tally.reset_at t.occupancy ~time:(Engine.now t.engine);
  t.completed <- 0;
  t.hot.work <- 0.0

let to_server t =
  {
    Server_intf.speed = t.speed;
    submit = submit t;
    in_system = (fun () -> in_system t);
    mean_in_system = (fun () -> mean_in_system t);
    utilization = (fun () -> utilization t);
    completed = (fun () -> completed t);
    work_done = (fun () -> work_done t);
    reset_stats = (fun () -> reset_stats t);
    set_rate = set_rate t;
    drain = (fun () -> drain t);
    discipline = "PS";
  }
