module Engine = Statsched_des.Engine
module Event_queue = Statsched_des.Event_queue
module Tally = Statsched_stats.Tally

type order =
  | Fcfs
  | Rr of float
  | Srpt

(* A job at this server.  [remaining] is its work left when its current
   (or next) slice begins; the same record carries the job through every
   RR turn and SRPT preemption.  It sits in an all-float record, like
   [hot] below, so the write at each RR requeue stores a raw double
   instead of boxing one that is then promoted with the queued entry. *)
type left = { mutable remaining : float }

type entry = { job : Job.t; left : left }

(* A FIFO of entries in a growable ring buffer (capacity a power of
   two): [Queue.push] allocates a cell per push, and RR pushes once per
   slice.  Vacated slots hold the server's [vacant] entry, so the ring
   keeps no finished job alive. *)
type ring = { mutable slots : entry array; mutable head : int; mutable len : int }

type ready =
  | Fifo of ring  (* FCFS and RR *)
  | By_remaining of entry Event_queue.t  (* SRPT: keyed by remaining work, ties FIFO *)

(* The running slice's float state, in an all-float record so updates
   write raw doubles instead of boxing (see [Ps_server]). *)
type hot = {
  mutable rate : float;  (* fault multiplier on speed; 0 = suspended *)
  mutable slice : float;  (* work the running slice delivers if uninterrupted *)
  mutable slice_start : float;
  mutable work : float;  (* service banked since creation/reset *)
}

type t = {
  engine : Engine.t;
  speed : float;
  quantum : float;  (* infinite for FCFS and SRPT: a slice runs the job to completion *)
  on_departure : Job.t -> unit;
  ready : ready;
  vacant : entry;
      (* placeholder, never served: [runner] holds it while no slice runs
         (an [entry option] would allocate a [Some] per slice) *)
  mutable runner : entry;
  mutable slice_end : Engine.slot;
      (* registered in [create] once the record exists; armed while a
         slice runs, disarmed while idle or suspended *)
  hot : hot;
  busy : Tally.t;
  occupancy : Tally.t;
  mutable completed : int;
  mutable n : int;
}

let now t = Engine.now t.engine

let note_occupancy t = Tally.update t.occupancy ~time:(now t) ~value:(float_of_int t.n)

let note_busy t =
  Tally.update t.busy ~time:(now t) ~value:(if t.hot.rate > 0.0 then 1.0 else 0.0)

(* schedlint: allow R3 — [vacant] is a sentinel, compared by identity *)
let[@inline] running t = t.runner != t.vacant

let[@schedsim.cold] grow_ring t r =
  let cap = Array.length r.slots in
  let slots = Array.make (2 * cap) t.vacant in
  for i = 0 to r.len - 1 do
    slots.(i) <- r.slots.((r.head + i) land (cap - 1))
  done;
  r.slots <- slots;
  r.head <- 0

let push_ready t e =
  match t.ready with
  | Fifo r ->
    if r.len = Array.length r.slots then grow_ring t r;
    r.slots.((r.head + r.len) land (Array.length r.slots - 1)) <- e;
    r.len <- r.len + 1
  | By_remaining q -> ignore (Event_queue.add q ~time:e.left.remaining e)

let ready_is_empty t =
  match t.ready with
  | Fifo r -> r.len = 0
  | By_remaining q -> Event_queue.is_empty q

(* Only called on a non-empty ready list. *)
let take_ready t =
  match t.ready with
  | Fifo r ->
    let e = r.slots.(r.head) in
    r.slots.(r.head) <- t.vacant;
    r.head <- (r.head + 1) land (Array.length r.slots - 1);
    r.len <- r.len - 1;
    e
  | By_remaining q ->
    ignore (Event_queue.pop_step q);
    Event_queue.last_payload q

(* Work the running slice has delivered so far; 0 while no slice is in
   flight.  Valid because every rate change ends the slice first, so the
   whole slice ran at the current rate. *)
let served t =
  if Engine.armed t.engine t.slice_end then
    min t.hot.slice ((now t -. t.hot.slice_start) *. (t.speed *. t.hot.rate))
  else 0.0

(* Bank the runner's progress in the current slice and cancel its end. *)
let interrupt t e =
  if Engine.armed t.engine t.slice_end then begin
    let s = served t in
    Engine.disarm t.engine t.slice_end;
    e.left.remaining <- e.left.remaining -. s;
    t.hot.work <- t.hot.work +. s
  end

(* While suspended no slice is scheduled; [set_rate] starts a fresh one
   on resume. *)
let start_slice t e =
  let eff = t.speed *. t.hot.rate in
  if eff > 0.0 then begin
    (* [Stdlib.min] would box the unboxed [remaining] read. *)
    let r = e.left.remaining in
    t.hot.slice <- (if t.quantum <= r then t.quantum else r);
    t.hot.slice_start <- now t;
    Engine.arm t.engine t.slice_end ~delay:(t.hot.slice /. eff)
  end

let run t e =
  if e.job.Job.start < 0.0 then e.job.Job.start <- now t;
  t.runner <- e;
  note_busy t;
  start_slice t e

let start_next t =
  if ready_is_empty t then Tally.update t.busy ~time:(now t) ~value:0.0
  else run t (take_ready t)

let end_slice t =
  if running t then begin
    let e = t.runner in
    t.runner <- t.vacant;
    t.hot.work <- t.hot.work +. t.hot.slice;
    let left = e.left.remaining -. t.hot.slice in
    (* Relative tolerance: RR slices can leave a round-off residue. *)
    if left <= 1e-12 *. e.job.Job.size then begin
      e.job.Job.completion <- now t;
      t.completed <- t.completed + 1;
      t.n <- t.n - 1;
      note_occupancy t;
      t.on_departure e.job
    end
    else begin
      e.left.remaining <- left;
      push_ready t e
    end;
    start_next t
  end

let submit t job =
  let e = { job; left = { remaining = job.Job.size } } in
  t.n <- t.n + 1;
  note_occupancy t;
  if not (running t) then run t e
  else
    match t.ready with
    | By_remaining _ when job.Job.size < t.runner.left.remaining -. served t ->
      let r = t.runner in
      interrupt t r;
      push_ready t r;
      run t e
    | By_remaining _ | Fifo _ -> push_ready t e

let set_rate t rate =
  if rate < 0.0 then invalid_arg "Serial_server.set_rate: rate < 0";
  if not (running t) then t.hot.rate <- rate
  else begin
    let e = t.runner in
    interrupt t e;
    t.hot.rate <- rate;
    note_busy t;
    start_slice t e
  end

let drain t =
  let rec waiting acc =
    if ready_is_empty t then List.rev acc else waiting ((take_ready t).job :: acc)
  in
  let jobs =
    if running t then begin
      let e = t.runner in
      interrupt t e;
      t.runner <- t.vacant;
      e.job :: waiting []
    end
    else waiting []
  in
  t.n <- 0;
  note_occupancy t;
  Tally.update t.busy ~time:(now t) ~value:0.0;
  jobs

let time_average tally t =
  Tally.advance tally ~time:(now t);
  let x = Tally.time_average tally in
  if Float.is_nan x then 0.0 else x

(* The in-flight slice banks its whole length into [work] when it ends,
   so a reset starts [work] at minus the part already delivered. *)
let reset_stats t =
  Tally.reset_at t.busy ~time:(now t);
  note_occupancy t;
  Tally.reset_at t.occupancy ~time:(now t);
  t.completed <- 0;
  t.hot.work <- -.served t

let create ~engine ~speed ~order ~on_departure () =
  if speed <= 0.0 then invalid_arg "Serial_server.create: speed <= 0";
  let vacant =
    { job = Job.create ~id:(-1) ~size:1.0 ~arrival:0.0; left = { remaining = 0.0 } }
  in
  let fifo () = Fifo { slots = Array.make 16 vacant; head = 0; len = 0 } in
  let quantum, ready, discipline =
    match order with
    | Fcfs -> (infinity, fifo (), "FCFS")
    | Rr q ->
      if q <= 0.0 then invalid_arg "Serial_server.create: quantum <= 0";
      (q, fifo (), Printf.sprintf "RR(q=%g)" q)
    | Srpt -> (infinity, By_remaining (Event_queue.create ()), "SRPT")
  in
  let t =
    {
      engine;
      speed;
      quantum;
      on_departure;
      ready;
      vacant;
      runner = vacant;
      slice_end = Engine.no_slot;
      hot = { rate = 1.0; slice = 0.0; slice_start = Engine.now engine; work = 0.0 };
      busy = Tally.create ~start_time:(Engine.now engine) ();
      occupancy = Tally.create ~start_time:(Engine.now engine) ();
      completed = 0;
      n = 0;
    }
  in
  t.slice_end <- Engine.slot engine (fun _ -> end_slice t);
  {
    Server_intf.speed;
    submit = submit t;
    in_system = (fun () -> t.n);
    mean_in_system = (fun () -> time_average t.occupancy t);
    utilization = (fun () -> time_average t.busy t);
    completed = (fun () -> t.completed);
    work_done = (fun () -> t.hot.work +. served t);
    reset_stats = (fun () -> reset_stats t);
    set_rate = set_rate t;
    drain = (fun () -> drain t);
    discipline;
  }
