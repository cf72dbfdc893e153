(* The engine keeps two event sources and fires the earlier one.

   The future-event list ({!Event_queue}) holds one-shot events: arrivals,
   faults, warm-up, periodic ticks.  Server completions live in
   {e completion slots} instead: one fixed callback per server with at
   most one pending firing, re-armed in place.  Armed slots sit in a flat
   winner tree over [(time, seq)], whose root is the earliest slot.  Arms
   draw their sequence numbers from the event queue's own counter, so at
   equal timestamps slot and heap events fire in the order they were
   scheduled — exactly as if every arm were a cancel followed by a fresh
   [schedule]. *)

type slot = int

type t = {
  clock : Float.Array.t;
      (* length 1.  A [mutable clock : float] field in this mixed record
         would box on every write — one allocation per event — whereas a
         flat float-array slot stores the raw double. *)
  queue : (t -> unit) Event_queue.t;
  mutable executed : int;
  mutable hwm : int;  (* most events (heap entries + armed slots) pending at once *)
  (* completion slots: leaf [s] is slot [s]; [infinity] marks a disarmed leaf *)
  mutable slot_fns : (t -> unit) array;
  mutable slot_times : Float.Array.t;
  mutable slot_seqs : int array;
  mutable winners : int array;
      (* winner tree: internal node [k] in [1, cap) holds the slot with the
         [(time, seq)] minimum of its subtree; children [2k], [2k+1], where
         a child [c >= cap] is the leaf of slot [c - cap] *)
  mutable n_slots : int;
  mutable n_armed : int;
}

type event_handle = Event_queue.handle

exception Schedule_in_past of { now : float; requested : float }

(* Sixteen leaves cover the paper's 15-computer cluster without a resize. *)
let initial_slots = 16

let no_slot = -1

let[@inline] slot_precedes e a b =
  let ta = Float.Array.unsafe_get e.slot_times a
  and tb = Float.Array.unsafe_get e.slot_times b in
  ta < tb
  || (Float.equal ta tb && Array.unsafe_get e.slot_seqs a < Array.unsafe_get e.slot_seqs b)

let[@inline] winner e cap c = if c >= cap then c - cap else Array.unsafe_get e.winners c

(* The winner of node [k] from its children's winners; the left child
   keeps ties, so the choice is a pure function of the leaves. *)
let[@inline] match_at e cap k =
  let a = winner e cap (2 * k) and b = winner e cap ((2 * k) + 1) in
  if slot_precedes e b a then b else a

(* Replay the matches on slot [s]'s path to the root. *)
let[@schedsim.hot] refresh e s =
  let cap = Array.length e.slot_seqs in
  let k = ref ((cap + s) lsr 1) in
  while !k >= 1 do
    Array.unsafe_set e.winners !k (match_at e cap !k);
    k := !k lsr 1
  done

let rebuild e =
  let cap = Array.length e.slot_seqs in
  for k = cap - 1 downto 1 do
    e.winners.(k) <- match_at e cap k
  done

let create ?(start_time = 0.0) () =
  let e =
    {
      clock = Float.Array.make 1 start_time;
      queue = Event_queue.create ();
      executed = 0;
      hwm = 0;
      slot_fns = Array.make initial_slots ignore;
      slot_times = Float.Array.make initial_slots infinity;
      slot_seqs = Array.make initial_slots 0;
      winners = Array.make initial_slots 0;
      n_slots = 0;
      n_armed = 0;
    }
  in
  rebuild e;
  e

let[@inline] now e = Float.Array.unsafe_get e.clock 0

let[@inline] pending_events e = Event_queue.size e.queue + e.n_armed

let[@inline] note_pending e =
  let p = pending_events e in
  if p > e.hwm then e.hwm <- p

let[@inline] schedule_at e ~time f =
  if time < now e then raise (Schedule_in_past { now = now e; requested = time });
  let h = Event_queue.add e.queue ~time f in
  note_pending e;
  h

let[@inline] [@schedsim.hot] schedule e ~delay f =
  if delay < 0.0 then
    raise (Schedule_in_past { now = now e; requested = now e +. delay });
  schedule_at e ~time:(now e +. delay) f

let cancel e h = Event_queue.cancel e.queue h

(* -- completion slots ---------------------------------------------------- *)

let[@schedsim.cold] grow_slots e =
  let cap = Array.length e.slot_seqs in
  let ncap = 2 * cap in
  let fns = Array.make ncap ignore in
  Array.blit e.slot_fns 0 fns 0 cap;
  e.slot_fns <- fns;
  let times = Float.Array.make ncap infinity in
  Float.Array.blit e.slot_times 0 times 0 cap;
  e.slot_times <- times;
  let seqs = Array.make ncap 0 in
  Array.blit e.slot_seqs 0 seqs 0 cap;
  e.slot_seqs <- seqs;
  e.winners <- Array.make ncap 0;
  rebuild e

let slot e f =
  if e.n_slots = Array.length e.slot_seqs then grow_slots e;
  let s = e.n_slots in
  e.n_slots <- s + 1;
  e.slot_fns.(s) <- f;
  s

(* The one bounds-checked read, so a [no_slot] misuse raises instead of
   touching memory. *)
let[@inline] armed e s = Float.Array.get e.slot_times s < infinity

let[@inline] [@schedsim.hot] arm e s ~delay =
  if delay < 0.0 then
    raise (Schedule_in_past { now = now e; requested = now e +. delay });
  let time = now e +. delay in
  if not (Float.is_finite time) then invalid_arg "Engine.arm: non-finite time";
  if not (armed e s) then begin
    e.n_armed <- e.n_armed + 1;
    note_pending e
  end;
  Float.Array.unsafe_set e.slot_times s time;
  Array.unsafe_set e.slot_seqs s (Event_queue.take_seq e.queue);
  refresh e s

(* Only for an armed slot. *)
let[@inline] unset e s =
  Float.Array.unsafe_set e.slot_times s infinity;
  e.n_armed <- e.n_armed - 1;
  refresh e s

let[@schedsim.hot] disarm e s = if armed e s then unset e s

(* The slot branch of [step]: disarm first, so the callback may re-arm. *)
let[@schedsim.hot] fire_slot e s =
  Float.Array.unsafe_set e.clock 0 (Float.Array.unsafe_get e.slot_times s);
  unset e s;
  e.executed <- e.executed + 1;
  (Array.unsafe_get e.slot_fns s) e

(* -- the event loop ------------------------------------------------------ *)

let[@schedsim.hot] step e =
  let s = Array.unsafe_get e.winners 1 in
  let ts = Float.Array.unsafe_get e.slot_times s in
  (* [next_time] is NaN on an empty heap; [not (th <= ts)] covers that
     case and a strictly later heap top in one allocation-free test. *)
  let th = Event_queue.next_time e.queue in
  if
    ts < infinity
    && ((not (th <= ts))
       || (Float.equal th ts && Array.unsafe_get e.slot_seqs s < Event_queue.top_seq e.queue))
  then begin
    fire_slot e s;
    true
  end
  else if Event_queue.pop_step e.queue then begin
    (* Allocation-free event dispatch: [pop_step] parks the event in the
       queue's scratch slot instead of returning a [(time, payload) option]. *)
    Float.Array.unsafe_set e.clock 0 (Event_queue.last_time e.queue);
    e.executed <- e.executed + 1;
    (Event_queue.last_payload e.queue) e;
    true
  end
  else false

(* Time of the next event, NaN when nothing is pending. *)
let[@inline] next_time e =
  let th = Event_queue.next_time e.queue in
  let ts = Float.Array.unsafe_get e.slot_times (Array.unsafe_get e.winners 1) in
  if th <= ts then th else if ts < infinity then ts else th

let run ?until e =
  match until with
  | None -> while step e do () done
  | Some horizon ->
    let running = ref true in
    while !running do
      (* NaN <= horizon is false — one allocation-free comparison covers
         both exits. *)
      if next_time e <= horizon then begin
        if not (step e) then running := false
      end
      else running := false
    done;
    if now e < horizon then Float.Array.unsafe_set e.clock 0 horizon

let events_executed e = e.executed

type snapshot = {
  snap_now : float;
  snap_events_executed : int;
  snap_pending : int;
  snap_heap_high_water : int;
}

let snapshot e =
  {
    snap_now = now e;
    snap_events_executed = e.executed;
    snap_pending = pending_events e;
    snap_heap_high_water = e.hwm;
  }

let heap_high_water e = e.hwm

(* Every internal node holds the match of its children, and the armed
   count is the number of finite leaves (a NaN leaf counts as neither). *)
let slots_ordered e =
  let cap = Array.length e.slot_seqs in
  let ok = ref true in
  for k = 1 to cap - 1 do
    if e.winners.(k) <> match_at e cap k then ok := false
  done;
  let finite = ref 0 in
  for s = 0 to cap - 1 do
    if Float.is_finite (Float.Array.get e.slot_times s) then incr finite
  done;
  !ok && !finite = e.n_armed

let heap_ordered e = Event_queue.heap_ordered e.queue && slots_ordered e

module Testing = struct
  let corrupt_heap e = Event_queue.Testing.corrupt e.queue

  let corrupt_slots e =
    (* Crown the root match's loser. *)
    let cap = Array.length e.slot_seqs in
    let a = winner e cap 2 in
    e.winners.(1) <- (if e.winners.(1) = a then winner e cap 3 else a)

  let heap_stored e = Event_queue.Testing.stored e.queue

  let slot_capacity e = Array.length e.slot_seqs
end

type periodic = { mutable tick : event_handle; mutable stopped : bool }

let every e ~period f =
  if period <= 0.0 then invalid_arg "Engine.every: period <= 0";
  let task = { tick = Event_queue.no_handle; stopped = false } in
  (* One closure for the lifetime of the periodic task: re-scheduling the
     same handler value keeps the per-tick path allocation-free.  The
     [stopped] flag covers a task cancelled from inside its own tick,
     when the pending handle has already fired. *)
  let rec handler e =
    f e;
    if not task.stopped then task.tick <- schedule e ~delay:period handler
  in
  task.tick <- schedule e ~delay:period handler;
  task

let stop e task =
  task.stopped <- true;
  ignore (cancel e task.tick)
