module Engine = Statsched_des.Engine
module Event_queue = Statsched_des.Event_queue
module Tally = Statsched_stats.Tally

type order =
  | Fcfs
  | Rr of float
  | Srpt

(* The ready list holds store slots.  A job's remaining work sits in
   the store's [left] column (a job is on one server at a time), so an
   RR requeue writes a raw double and pushes an int: no entry record,
   no box.  FIFO order lives in a growable ring buffer (capacity a
   power of two): [Queue.push] would allocate a cell per push, and RR
   pushes once per slice. *)
type ring = { mutable slots : int array; mutable head : int; mutable len : int }

type ready =
  | Fifo of ring  (* FCFS and RR *)
  | By_remaining of int Event_queue.t  (* SRPT: keyed by remaining work, ties FIFO *)

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
  store : Job_store.t;
  on_departure : int -> unit;
  ready : ready;
  mutable runner : int;  (* the slot in service; [-1] while no slice runs *)
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

let[@inline] running t = t.runner >= 0

let[@schedsim.cold] grow_ring r =
  let cap = Array.length r.slots in
  let slots = Array.make (2 * cap) (-1) in
  for i = 0 to r.len - 1 do
    slots.(i) <- r.slots.((r.head + i) land (cap - 1))
  done;
  r.slots <- slots;
  r.head <- 0

let push_ready t s =
  match t.ready with
  | Fifo r ->
    if r.len = Array.length r.slots then grow_ring r;
    r.slots.((r.head + r.len) land (Array.length r.slots - 1)) <- s;
    r.len <- r.len + 1
  | By_remaining q -> ignore (Event_queue.add q ~time:(Job_store.left t.store s) s)

let ready_is_empty t =
  match t.ready with
  | Fifo r -> r.len = 0
  | By_remaining q -> Event_queue.is_empty q

(* Only called on a non-empty ready list. *)
let take_ready t =
  match t.ready with
  | Fifo r ->
    let s = r.slots.(r.head) in
    r.head <- (r.head + 1) land (Array.length r.slots - 1);
    r.len <- r.len - 1;
    s
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
let interrupt t s =
  if Engine.armed t.engine t.slice_end then begin
    let done_ = served t in
    Engine.disarm t.engine t.slice_end;
    Job_store.set_left t.store s (Job_store.left t.store s -. done_);
    t.hot.work <- t.hot.work +. done_
  end

(* While suspended no slice is scheduled; [set_rate] starts a fresh one
   on resume. *)
let start_slice t s =
  let eff = t.speed *. t.hot.rate in
  if eff > 0.0 then begin
    (* [Stdlib.min] would box the unboxed [left] read. *)
    let r = Job_store.left t.store s in
    t.hot.slice <- (if t.quantum <= r then t.quantum else r);
    t.hot.slice_start <- now t;
    Engine.arm t.engine t.slice_end ~delay:(t.hot.slice /. eff)
  end

let run t s =
  if Job_store.start t.store s < 0.0 then Job_store.set_start t.store s (now t);
  t.runner <- s;
  note_busy t;
  start_slice t s

let start_next t =
  if ready_is_empty t then Tally.update t.busy ~time:(now t) ~value:0.0
  else run t (take_ready t)

let[@schedsim.hot] end_slice t =
  if running t then begin
    let s = t.runner in
    t.runner <- -1;
    t.hot.work <- t.hot.work +. t.hot.slice;
    let left = Job_store.left t.store s -. t.hot.slice in
    (* Relative tolerance: RR slices can leave a round-off residue. *)
    if left <= 1e-12 *. Job_store.size t.store s then begin
      Job_store.set_completion t.store s (now t);
      t.completed <- t.completed + 1;
      t.n <- t.n - 1;
      note_occupancy t;
      t.on_departure s
    end
    else begin
      Job_store.set_left t.store s left;
      push_ready t s
    end;
    start_next t
  end

let[@schedsim.hot] submit t s =
  let size = Job_store.size t.store s in
  Job_store.set_left t.store s size;
  t.n <- t.n + 1;
  note_occupancy t;
  if not (running t) then run t s
  else
    match t.ready with
    | By_remaining _ when size < Job_store.left t.store t.runner -. served t ->
      let r = t.runner in
      interrupt t r;
      push_ready t r;
      run t s
    | By_remaining _ | Fifo _ -> push_ready t s

let set_rate t rate =
  if rate < 0.0 then invalid_arg "Serial_server.set_rate: rate < 0";
  if not (running t) then t.hot.rate <- rate
  else begin
    let s = t.runner in
    interrupt t s;
    t.hot.rate <- rate;
    note_busy t;
    start_slice t s
  end

let drain t =
  let rec waiting acc =
    if ready_is_empty t then List.rev acc else waiting (take_ready t :: acc)
  in
  let jobs =
    if running t then begin
      let s = t.runner in
      interrupt t s;
      t.runner <- -1;
      s :: waiting []
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

let create ~engine ~speed ~order ~store ~on_departure () =
  if speed <= 0.0 then invalid_arg "Serial_server.create: speed <= 0";
  let fifo () = Fifo { slots = Array.make 16 (-1); head = 0; len = 0 } in
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
      store;
      on_departure;
      ready;
      runner = -1;
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
