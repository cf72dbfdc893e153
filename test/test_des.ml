open Test_util
module Event_queue = Statsched_des.Event_queue
module Engine = Statsched_des.Engine

let eq_ordering () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:3.0 "c");
  ignore (Event_queue.add q ~time:1.0 "a");
  ignore (Event_queue.add q ~time:2.0 "b");
  Alcotest.(check (option (pair (float 0.0) string))) "first" (Some (1.0, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "second" (Some (2.0, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "third" (Some (3.0, "c")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Event_queue.pop q)

let eq_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5.0 "first");
  ignore (Event_queue.add q ~time:5.0 "second");
  ignore (Event_queue.add q ~time:5.0 "third");
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "FIFO within equal timestamps"
    [ "first"; "second"; "third" ] order

let eq_cancel () =
  let q = Event_queue.create () in
  let _h1 = Event_queue.add q ~time:1.0 "keep" in
  let h2 = Event_queue.add q ~time:2.0 "drop" in
  let _h3 = Event_queue.add q ~time:3.0 "keep2" in
  Alcotest.(check bool) "cancel succeeds" true (Event_queue.cancel q h2);
  Alcotest.(check bool) "double cancel fails" false (Event_queue.cancel q h2);
  Alcotest.(check int) "size reflects cancellation" 2 (Event_queue.size q);
  Alcotest.(check (option (pair (float 0.0) string))) "first" (Some (1.0, "keep")) (Event_queue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "skips cancelled" (Some (3.0, "keep2"))
    (Event_queue.pop q)

let eq_cancel_after_pop () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1.0 () in
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "cancel after fire fails" false (Event_queue.cancel q h)

let eq_peek () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "peek empty" true (Float.is_nan (Event_queue.next_time q));
  let h = Event_queue.add q ~time:4.0 () in
  ignore (Event_queue.add q ~time:7.0 ());
  check_float ~eps:0.0 "peek min" 4.0 (Event_queue.next_time q);
  ignore (Event_queue.cancel q h);
  check_float ~eps:0.0 "peek skips cancelled" 7.0 (Event_queue.next_time q)

let eq_nonfinite_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: non-finite time")
    (fun () -> ignore (Event_queue.add q ~time:Float.nan ()));
  Alcotest.check_raises "inf" (Invalid_argument "Event_queue.add: non-finite time")
    (fun () -> ignore (Event_queue.add q ~time:Float.infinity ()))

let eq_random_stress () =
  (* Insert random times, pop everything: output must be sorted and
     complete. *)
  let g = rng () in
  let q = Event_queue.create () in
  let n = 5000 in
  let times = Array.init n (fun _ -> Statsched_prng.Rng.float g *. 1000.0) in
  Array.iter (fun t -> ignore (Event_queue.add q ~time:t ())) times;
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, ()) ->
      popped := t :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let popped = Array.of_list (List.rev !popped) in
  Alcotest.(check int) "all events popped" n (Array.length popped);
  for i = 1 to n - 1 do
    if popped.(i) < popped.(i - 1) then Alcotest.fail "out of order pop"
  done;
  let sorted = Array.copy times in
  Array.sort Float.compare sorted;
  check_array ~eps:0.0 "exact multiset preserved" sorted popped

let prop_eq_sorted =
  qcheck ~count:100 "pops are sorted for any insertion order"
    QCheck2.Gen.(list_size (int_range 0 200) (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:t ())) times;
      let rec drain acc =
        match Event_queue.pop q with Some (t, ()) -> drain (t :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      List.length out = List.length times
      && fst
           (List.fold_left
              (fun (ok, prev) t -> (ok && t >= prev, t))
              (true, neg_infinity) out))

let engine_clock_advances () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:2.0 (fun e -> log := ("a", Engine.now e) :: !log));
  ignore (Engine.schedule e ~delay:1.0 (fun e -> log := ("b", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "events in order with correct clock"
    [ ("b", 1.0); ("a", 2.0) ]
    (List.rev !log);
  check_float "final clock" 2.0 (Engine.now e)

let engine_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick e =
    incr count;
    if !count < 5 then ignore (Engine.schedule e ~delay:1.0 tick)
  in
  ignore (Engine.schedule e ~delay:1.0 tick);
  Engine.run e;
  Alcotest.(check int) "recursive events all fire" 5 !count;
  check_float "clock at last tick" 5.0 (Engine.now e)

let engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at e ~time:t (fun _ -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 0.0))) "only events before horizon" [ 1.0; 2.0 ]
    (List.rev !fired);
  check_float "clock advanced to horizon" 2.5 (Engine.now e);
  (* events after horizon remain pending *)
  Alcotest.(check int) "pending remain" 2 (Engine.pending_events e)

let engine_schedule_in_past () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()));
  Engine.run e;
  (try
     ignore (Engine.schedule_at e ~time:0.5 (fun _ -> ()));
     Alcotest.fail "expected Schedule_in_past"
   with Engine.Schedule_in_past { now; requested } ->
     check_float "now" 1.0 now;
     check_float "requested" 0.5 requested);
  try
    ignore (Engine.schedule e ~delay:(-1.0) (fun _ -> ()));
    Alcotest.fail "expected Schedule_in_past for negative delay"
  with Engine.Schedule_in_past _ -> ()

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:1.0 (fun _ -> fired := true) in
  Alcotest.(check bool) "cancel ok" true (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let engine_step () =
  let e = Engine.create () in
  let n = ref 0 in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> incr n));
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> incr n));
  Alcotest.(check bool) "step 1" true (Engine.step e);
  Alcotest.(check int) "one fired" 1 !n;
  Alcotest.(check bool) "step 2" true (Engine.step e);
  Alcotest.(check bool) "step empty" false (Engine.step e);
  Alcotest.(check int) "executed counter" 2 (Engine.events_executed e)

let engine_start_time () =
  let e = Engine.create ~start_time:100.0 () in
  check_float "initial clock" 100.0 (Engine.now e);
  let at = ref 0.0 in
  ignore (Engine.schedule e ~delay:5.0 (fun e -> at := Engine.now e));
  Engine.run e;
  check_float "delay relative to start" 105.0 !at

let engine_fifo_determinism () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:1.0 (fun _ -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "same-time events fire in schedule order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Memory behaviour: popped and cancelled events must not be retained *)
(* by the heap array (regression for the cancel space leak).          *)

let add_tracked q (w : float array Weak.t) i ~time =
  (* Allocate the payload inside a helper so no local binding keeps it
     alive; only the queue (and the weak table) can reach it. *)
  let payload = Array.make 64 (float_of_int i) in
  Weak.set w i (Some payload);
  Event_queue.add q ~time payload

let eq_pop_releases_payloads () =
  let q = Event_queue.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    ignore (add_tracked q w i ~time:(float_of_int i))
  done;
  for _ = 0 to 7 do
    ignore (Event_queue.pop q)
  done;
  Gc.full_major ();
  (* Slot 0's original entry doubles as the dead-slot filler, so it may
     legitimately stay reachable for the queue's lifetime; everything
     else must go. *)
  for i = 1 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after pop" i)
      true
      (Option.is_none (Weak.get w i))
  done

let eq_cancel_releases_payloads () =
  (* Cancelling removes the entry in place, so a cancelled payload is
     unreachable at once — no dead entry waits in the heap for a pop or
     a compaction to reach it. *)
  let n = 200 in
  let q = Event_queue.create () in
  let w = Weak.create n in
  let handles =
    Array.init n (fun i -> add_tracked q w i ~time:(float_of_int i))
  in
  for i = 10 to n - 1 do
    Alcotest.(check bool) "cancel succeeds" true (Event_queue.cancel q handles.(i))
  done;
  Alcotest.(check int) "size" 10 (Event_queue.size q);
  Gc.full_major ();
  for i = 10 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after cancel" i)
      true
      (Option.is_none (Weak.get w i))
  done;
  let popped = List.init 10 (fun _ -> fst (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list (float 0.0))) "survivors pop in order"
    (List.init 10 float_of_int) popped;
  Alcotest.(check bool) "then empty" true (Option.is_none (Event_queue.pop q))

let eq_stale_handles () =
  (* A handle is its event's sequence number, never reused: once the
     event fired or was cancelled, the handle misses for good, however
     many events are added after it. *)
  let q = Event_queue.create () in
  let fired = Event_queue.add q ~time:1.0 "fired" in
  let cancelled = Event_queue.add q ~time:2.0 "cancelled" in
  ignore (Event_queue.pop q);
  Alcotest.(check bool) "cancel succeeds" true (Event_queue.cancel q cancelled);
  for i = 0 to 99 do
    ignore (Event_queue.add q ~time:(float_of_int (i mod 7)) "later")
  done;
  Alcotest.(check bool) "fired handle misses" false (Event_queue.cancel q fired);
  Alcotest.(check bool) "cancelled handle misses" false (Event_queue.cancel q cancelled);
  Alcotest.(check bool) "no_handle misses" false
    (Event_queue.cancel q Event_queue.no_handle);
  Alcotest.(check int) "no later event was removed" 100 (Event_queue.size q)

let engine_every () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.every e ~period:2.0 (fun e -> fired := Engine.now e :: !fired));
  Engine.run ~until:7.0 e;
  Alcotest.(check (list (float 0.0))) "fires at each period" [ 2.0; 4.0; 6.0 ]
    (List.rev !fired);
  Alcotest.check_raises "period <= 0" (Invalid_argument "Engine.every: period <= 0")
    (fun () -> ignore (Engine.every e ~period:0.0 (fun _ -> ())))

(* Stopping a periodic task cancels its pending tick: no further firing
   and no event left behind, whether it is stopped between ticks or from
   inside its own tick. *)
let engine_every_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let task = Engine.every e ~period:2.0 (fun _ -> incr fired) in
  Engine.run ~until:5.0 e;
  Alcotest.(check int) "one pending tick" 1 (Engine.pending_events e);
  Engine.stop e task;
  Alcotest.(check int) "stop leaves no pending event" 0 (Engine.pending_events e);
  Engine.run ~until:20.0 e;
  Alcotest.(check int) "no tick after stop" 2 !fired;
  Engine.stop e task;
  Alcotest.(check int) "stop is idempotent" 0 (Engine.pending_events e);
  let self_fired = ref 0 in
  let rec self =
    lazy
      (Engine.every e ~period:1.0 (fun e ->
           incr self_fired;
           if !self_fired = 3 then Engine.stop e (Lazy.force self)))
  in
  ignore (Lazy.force self);
  Engine.run ~until:30.0 e;
  Alcotest.(check int) "stopped from inside its own tick" 3 !self_fired;
  Alcotest.(check int) "nothing rescheduled" 0 (Engine.pending_events e)

let engine_heap_high_water () =
  let e = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule_at e ~time:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "seven simultaneous pending events" 7
    (Engine.heap_high_water e)

(* ------------------------------------------------------------------ *)
(* Completion slots                                                    *)

(* Fire everything, logging each label in firing order. *)
let firing_order setup =
  let e = Engine.create () in
  let log = ref [] in
  let note label _ = log := label :: !log in
  setup e note;
  Engine.run e;
  List.rev !log

let engine_slot_heap_ties () =
  Alcotest.(check (list string)) "heap scheduled first fires first" [ "heap"; "slot" ]
    (firing_order (fun e note ->
         let s = Engine.slot e (note "slot") in
         ignore (Engine.schedule e ~delay:1.0 (note "heap"));
         Engine.arm e s ~delay:1.0));
  Alcotest.(check (list string)) "slot armed first fires first" [ "slot"; "heap" ]
    (firing_order (fun e note ->
         let s = Engine.slot e (note "slot") in
         Engine.arm e s ~delay:1.0;
         ignore (Engine.schedule e ~delay:1.0 (note "heap"))));
  Alcotest.(check (list string)) "a re-arm onto a tie queues behind the heap event"
    [ "heap"; "slot" ]
    (firing_order (fun e note ->
         let s = Engine.slot e (note "slot") in
         Engine.arm e s ~delay:1.0;
         ignore (Engine.schedule e ~delay:1.0 (note "heap"));
         Engine.arm e s ~delay:1.0));
  Alcotest.(check (list string)) "several slots tie by arm order" [ "a"; "heap"; "b" ]
    (firing_order (fun e note ->
         let a = Engine.slot e (note "a") and b = Engine.slot e (note "b") in
         Engine.arm e b ~delay:2.0;
         Engine.arm e a ~delay:2.0;
         ignore (Engine.schedule e ~delay:2.0 (note "heap"));
         Engine.arm e b ~delay:2.0))

let engine_slot_rearm_disarm () =
  let e = Engine.create () in
  let fired = ref [] in
  let inside = ref true in
  let self = ref Engine.no_slot in
  let s =
    Engine.slot e (fun e ->
        fired := Engine.now e :: !fired;
        inside := Engine.armed e !self)
  in
  self := s;
  Alcotest.(check bool) "fresh slot is disarmed" false (Engine.armed e s);
  Engine.arm e s ~delay:5.0;
  Engine.arm e s ~delay:2.0;
  Alcotest.(check bool) "armed" true (Engine.armed e s);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "re-arm replaces the pending firing" [ 2.0 ] !fired;
  Alcotest.(check bool) "disarmed inside its own callback" false !inside;
  Alcotest.(check int) "one event executed" 1 (Engine.events_executed e);
  Engine.arm e s ~delay:1.0;
  Engine.disarm e s;
  Engine.disarm e s;
  Alcotest.(check bool) "disarmed" false (Engine.armed e s);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "a disarmed slot never fires" 1 (List.length !fired)

let engine_slot_counters () =
  let e = Engine.create () in
  let slots = Array.init 3 (fun _ -> Engine.slot e (fun _ -> ())) in
  ignore (Engine.schedule e ~delay:1.0 (fun _ -> ()));
  ignore (Engine.schedule e ~delay:2.0 (fun _ -> ()));
  Array.iteri (fun i s -> Engine.arm e s ~delay:(float_of_int (i + 3))) slots;
  Alcotest.(check int) "pending counts armed slots" 5 (Engine.pending_events e);
  Alcotest.(check int) "high-water counts armed slots" 5 (Engine.heap_high_water e);
  Engine.arm e slots.(0) ~delay:9.0;
  Alcotest.(check int) "a re-arm adds nothing" 5 (Engine.pending_events e);
  Engine.disarm e slots.(1);
  Alcotest.(check int) "disarm removes one" 4 (Engine.pending_events e);
  Alcotest.(check int) "snapshot agrees" 4 (Engine.snapshot e).Engine.snap_pending;
  Engine.run e;
  Alcotest.(check int) "all fired" 4 (Engine.events_executed e);
  Alcotest.(check int) "high-water kept" 5 (Engine.heap_high_water e);
  Alcotest.(check int) "snapshot high-water" 5
    (Engine.snapshot e).Engine.snap_heap_high_water

let engine_slot_validation () =
  let e = Engine.create ~start_time:1.0 () in
  let s = Engine.slot e (fun _ -> ()) in
  (try
     Engine.arm e s ~delay:(-0.5);
     Alcotest.fail "expected Schedule_in_past"
   with Engine.Schedule_in_past { now; requested } ->
     check_float "now" 1.0 now;
     check_float "requested" 0.5 requested);
  Alcotest.check_raises "nan" (Invalid_argument "Engine.arm: non-finite time") (fun () ->
      Engine.arm e s ~delay:Float.nan);
  Alcotest.check_raises "inf" (Invalid_argument "Engine.arm: non-finite time") (fun () ->
      Engine.arm e s ~delay:Float.infinity);
  Alcotest.(check bool) "failed arms leave it disarmed" false (Engine.armed e s);
  Alcotest.(check bool) "index intact" true (Engine.heap_ordered e);
  Alcotest.check_raises "no_slot" (Invalid_argument "index out of bounds") (fun () ->
      Engine.arm e Engine.no_slot ~delay:1.0)

let engine_slot_growth () =
  (* 40 slots, past the initial 16 leaves: arms in a scrambled order with
     ties must fire by (time, arm order). *)
  let e = Engine.create () in
  let log = ref [] in
  let slots = Array.init 40 (fun i -> Engine.slot e (fun _ -> log := i :: !log)) in
  Alcotest.(check bool) "index grew" true (Engine.Testing.slot_capacity e >= 40);
  let order = List.init 40 (fun k -> (k * 17) mod 40) in
  List.iter (fun i -> Engine.arm e slots.(i) ~delay:(float_of_int (i mod 7))) order;
  Alcotest.(check bool) "index ordered" true (Engine.heap_ordered e);
  Engine.run e;
  let expected =
    List.stable_sort (fun a b -> Int.compare (a mod 7) (b mod 7)) order
  in
  Alcotest.(check (list int)) "fires by (time, arm order)" expected (List.rev !log)

(* Random interleavings against a reference engine in which a slot is a
   plain heap event: [arm] is a cancel plus a fresh [schedule].  Slot
   callbacks on even slots re-arm once from inside, so re-entrant arms
   are covered too. *)
let prop_slots_match_reference =
  let n_slots = 5 in
  qcheck ~count:300 "engine: slots match cancel-and-reschedule reference"
    QCheck2.Gen.(
      list_size (int_range 0 120)
        (oneof
           [
             map (fun d -> `Schedule d) (int_range 0 8);
             map (fun k -> `Cancel k) (int_range 0 1000);
             map2 (fun s d -> `Arm (s, d)) (int_range 0 (n_slots - 1)) (int_range 0 8);
             map (fun s -> `Disarm s) (int_range 0 (n_slots - 1));
             return `Step;
           ]))
    (fun ops ->
      let delay d = float_of_int d /. 4.0 in
      (* The slot engine. *)
      let e = Engine.create () in
      let log = ref [] in
      let handles = ref [] and n_sched = ref 0 in
      let rearmed = Array.make n_slots false in
      let slots = Array.make n_slots Engine.no_slot in
      Array.iteri
        (fun k _ ->
          slots.(k) <-
            Engine.slot e (fun e ->
                log := (`S k, Engine.now e) :: !log;
                if k mod 2 = 0 && not rearmed.(k) then begin
                  rearmed.(k) <- true;
                  Engine.arm e slots.(k) ~delay:0.5
                end))
        slots;
      (* The reference engine. *)
      let r = Engine.create () in
      let rlog = ref [] in
      let rhandles = ref [] in
      let rrearmed = Array.make n_slots false in
      let rslot = Array.make n_slots Event_queue.no_handle in
      let rec rarm k d =
        ignore (Engine.cancel r rslot.(k));
        rslot.(k) <-
          Engine.schedule r ~delay:d (fun r ->
              rslot.(k) <- Event_queue.no_handle;
              rlog := (`S k, Engine.now r) :: !rlog;
              if k mod 2 = 0 && not rrearmed.(k) then begin
                rrearmed.(k) <- true;
                rarm k 0.5
              end)
      in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | `Schedule d ->
            let id = !n_sched in
            incr n_sched;
            handles :=
              Engine.schedule e ~delay:(delay d) (fun e ->
                  log := (`H id, Engine.now e) :: !log)
              :: !handles;
            rhandles :=
              Engine.schedule r ~delay:(delay d) (fun r ->
                  rlog := (`H id, Engine.now r) :: !rlog)
              :: !rhandles
          | `Cancel k ->
            if !n_sched > 0 then begin
              let i = k mod !n_sched in
              ignore (Engine.cancel e (List.nth !handles i));
              ignore (Engine.cancel r (List.nth !rhandles i))
            end
          | `Arm (k, d) ->
            Engine.arm e slots.(k) ~delay:(delay d);
            rarm k (delay d)
          | `Disarm k ->
            Engine.disarm e slots.(k);
            ignore (Engine.cancel r rslot.(k));
            rslot.(k) <- Event_queue.no_handle
          | `Step ->
            let fired = Engine.step e in
            if fired <> Engine.step r then ok := false);
          if Engine.pending_events e <> Engine.pending_events r
             || not (Engine.heap_ordered e)
          then ok := false)
        ops;
      Engine.run e;
      Engine.run r;
      let same_firing (a, t) (b, t') = a = b && Float.equal t t' in
      !ok
      && List.equal same_firing !log !rlog
      && Engine.events_executed e = Engine.events_executed r
      && Engine.heap_high_water e = Engine.heap_high_water r)

let eq_hot_path_no_alloc () =
  (* The SoA queue must not allocate per event once its buffers are
     sized: [add] with a statically-allocated time, [pop_step] and the
     scratch reads all work in place.  A first add/drain cycle grows the
     heap arrays and the scratch slots; the second is measured under
     [Gc.minor_words]. *)
  let n = 512 in
  let q = Event_queue.create () in
  let cycle () =
    for _ = 1 to n do
      ignore (Event_queue.add q ~time:1.0 ())
    done;
    let h = Event_queue.add q ~time:2.0 () in
    ignore (Event_queue.cancel q h);
    while Event_queue.pop_step q do
      ignore (Event_queue.is_empty q);
      ignore (Event_queue.size q)
    done
  in
  cycle ();
  let before = Gc.minor_words () in
  cycle ();
  let delta = Gc.minor_words () -. before in
  (* A per-event cost would show as >= n words; allow a few words of
     slack for the [Gc.minor_words] boxes themselves. *)
  Alcotest.(check bool)
    (Printf.sprintf "hot path allocated %.0f minor words for %d events" delta n)
    true
    (delta <= 64.0)

(* The oracle: live entries as an ordered set of (time, id), where ids
   count adds, so set order is pop order (time, then FIFO). *)
module Oracle = Set.Make (struct
  type t = float * int

  let compare (t, i) (t', i') =
    match Float.compare t t' with 0 -> Int.compare i i' | c -> c
end)

(* Replay [ops] on a fresh queue and on the oracle.  After every op the
   queue's size and earliest time must match the oracle's; the O(n)
   heap audit runs every [audit_every] ops.  Cancellations hit live,
   popped and already-cancelled events alike.  Returns whether the two
   agreed throughout, and the most events pending at once. *)
let replay_against_oracle ?(audit_every = 1) ops =
  let q = Event_queue.create () in
  let added = Hashtbl.create 64 in  (* id -> (handle, time) *)
  let n_added = ref 0 in
  let live = ref Oracle.empty and n_live = ref 0 and peak = ref 0 in
  let ok = ref true in
  let fail_if b = if b then ok := false in
  List.iteri
    (fun k op ->
      (if !ok then
         match op with
         | `Add t ->
           Hashtbl.replace added !n_added (Event_queue.add q ~time:t !n_added, t);
           live := Oracle.add (t, !n_added) !live;
           incr n_added;
           incr n_live;
           peak := max !peak !n_live
         | `Cancel k ->
           if !n_added > 0 then begin
             let id = k mod !n_added in
             let h, t = Hashtbl.find added id in
             let expected = Oracle.mem (t, id) !live in
             fail_if (Event_queue.cancel q h <> expected);
             if expected then begin
               live := Oracle.remove (t, id) !live;
               decr n_live
             end
           end
         | `Pop -> (
           match (Event_queue.pop q, Oracle.min_elt_opt !live) with
           | None, None -> ()
           | Some (t, id), Some ((t', id') as first) ->
             fail_if (not (Float.equal t t') || id <> id');
             live := Oracle.remove first !live;
             decr n_live
           | _ -> ok := false));
      if !ok then begin
        fail_if (Event_queue.size q <> !n_live);
        if k mod audit_every = 0 then fail_if (not (Event_queue.heap_ordered q));
        match Oracle.min_elt_opt !live with
        | None -> fail_if (not (Float.is_nan (Event_queue.next_time q)))
        | Some (t, _) -> fail_if (not (Float.equal (Event_queue.next_time q) t))
      end)
    ops;
  (!ok, !peak)

let prop_eq_model =
  (* Coarse times force ties, so FIFO order must match insertion order. *)
  qcheck ~count:300 "model: heap matches sorted-list oracle"
    QCheck2.Gen.(
      list_size (int_range 0 150)
        (oneof
           [
             map (fun t -> `Add (float_of_int t /. 4.0)) (int_range 0 30);
             map (fun k -> `Cancel k) (int_range 0 1000);
             return `Pop;
           ]))
    (fun ops -> fst (replay_against_oracle ops))

let eq_model_many_pending () =
  (* The regime of a many-server fault plan: over 10^4 events pending at
     once, coarse times (ties) drifting upwards as the pops advance, and
     cancellations of recent and of arbitrary events. *)
  let g = rng () in
  let rint = Statsched_prng.Rng.int g in
  let ops = ref [] and n_adds = ref 0 in
  let emit op = ops := op :: !ops in
  let add () =
    emit (`Add (float_of_int ((!n_adds / 4) + rint 4096) /. 8.0));
    incr n_adds
  in
  for _ = 1 to 12_000 do
    add ()
  done;
  for _ = 1 to 40_000 do
    match rint 8 with
    | 0 | 1 | 2 | 3 -> add ()
    | 4 | 5 -> emit `Pop
    | 6 -> emit (`Cancel (rint !n_adds))
    | _ -> emit (`Cancel (!n_adds - 1 - rint 64))
  done;
  for _ = 1 to 40_000 do
    emit `Pop
  done;
  let ok, peak = replay_against_oracle ~audit_every:4096 (List.rev !ops) in
  Alcotest.(check bool) (Printf.sprintf "peak pending %d >= 10^4" peak) true (peak >= 10_000);
  Alcotest.(check bool) "pops, sizes and cancels match the oracle" true ok

let eq_cancel_mid_heap () =
  (* Cancelling an entry in the middle of the heap refills its cell with
     the last entry, which may have to move up or down: coarse times
     (ties) and cancellations of every third event, audited after every
     operation against the ordered-set model. *)
  let g = rng () in
  let ops =
    List.init 400 (fun _ -> `Add (float_of_int (Statsched_prng.Rng.int g 40) /. 4.0))
    @ List.init 133 (fun k -> `Cancel (3 * k))
    @ List.concat (List.init 100 (fun k -> [ `Pop; `Cancel ((3 * k) + 1) ]))
    @ List.init 300 (fun _ -> `Pop)
  in
  let ok, _ = replay_against_oracle ops in
  Alcotest.(check bool) "pops, sizes and cancels match the oracle" true ok

let eq_capacity_bounded () =
  (* Regression for cancellation bookkeeping that grew with the total
     event count: with 10^4 events pending at all times and 2 * 10^5
     scheduled over the run, half of them cancelled, the heap arrays
     must stay proportional to the most events ever pending at once. *)
  let pending = 10_000 in
  let churn = 200_000 in
  let q = Event_queue.create () in
  let peak = ref 0 in
  let add ~time slot =
    let h = Event_queue.add q ~time slot in
    peak := max !peak (Event_queue.size q);
    h
  in
  let handles = Array.init pending (fun i -> add ~time:(float_of_int i) i) in
  let g = rng () in
  for j = 0 to churn - 1 do
    let slot = j mod pending in
    (* Alternate between firing the replaced event and cancelling it. *)
    if j land 1 = 0 then ignore (Event_queue.cancel q handles.(slot))
    else ignore (Event_queue.pop q);
    let t = float_of_int (pending + j) +. Statsched_prng.Rng.float g in
    handles.(slot) <- add ~time:t slot
  done;
  let cap = Event_queue.Testing.capacity q in
  Alcotest.(check bool)
    (Printf.sprintf "capacity O(peak pending): %d vs peak %d" cap !peak)
    true
    (cap <= (2 * !peak) + 64);
  Alcotest.(check bool) "invariants hold after churn" true
    (Event_queue.heap_ordered q)

(* A 5000-computer cluster under an exponential fault plan keeps one
   pending fault event per computer, so the future-event list holds
   about 5000 events throughout.  Bit patterns of JSQ(2) at rho 0.7
   (MTBF 2*10^4 s, MTTR 50 s, horizon 50 s, warm-up 5 s, seed 42): the
   response metrics, the engine's [events_executed] and its
   [heap_high_water].  Any change to the event order at this scale
   shows up here. *)
let engine_many_pending_faults_pinned () =
  let module S = Statsched_cluster.Simulation in
  let module M = Statsched_core.Metrics in
  let speeds = Statsched_experiments.Ext_scale.speeds_for 5000 in
  let r =
    S.run
      (S.default_config ~horizon:50.0 ~warmup:5.0 ~speeds
         ~faults:(Statsched_cluster.Fault.exponential ~mtbf:20_000.0 ~mttr:50.0 ())
         ~workload:(Statsched_cluster.Workload.paper_default ~rho:0.7 ~speeds)
         ~scheduler:(Statsched_cluster.Scheduler.jsq ~d:2 ())
         ())
  in
  let bits what expected actual =
    Alcotest.(check int64) what expected (Int64.bits_of_float actual)
  in
  bits "mean response time" 0x40173399813ab4c8L r.S.metrics.M.mean_response_time;
  bits "mean response ratio" 0x3fd068f96f6c8ac7L r.S.metrics.M.mean_response_ratio;
  bits "p99 response ratio" 0x3ff01bed4e2abc67L r.S.p99_response_ratio;
  Alcotest.(check int) "jobs measured" 2978 r.S.metrics.M.jobs;
  Alcotest.(check int) "events executed" 8032 r.S.events_executed;
  Alcotest.(check int) "heap high-water" 5796 r.S.heap_high_water

let suite =
  [
    test "event_queue: basic ordering" eq_ordering;
    test "event_queue: FIFO tie-breaking" eq_fifo_ties;
    test "event_queue: cancellation" eq_cancel;
    test "event_queue: cancel after pop" eq_cancel_after_pop;
    test "event_queue: peek" eq_peek;
    test "event_queue: non-finite time rejected" eq_nonfinite_rejected;
    test "event_queue: pop releases payloads" eq_pop_releases_payloads;
    test "event_queue: cancel frees the payload" eq_cancel_releases_payloads;
    test "event_queue: stale handles miss" eq_stale_handles;
    test "event_queue: mid-heap cancel keeps order" eq_cancel_mid_heap;
    test "event_queue: random stress" eq_random_stress;
    test "event_queue: hot path does not allocate" eq_hot_path_no_alloc;
    prop_eq_sorted;
    prop_eq_model;
    test "event_queue: 10^4 pending match sorted-list oracle" eq_model_many_pending;
    test "event_queue: capacity bounded by high-water" eq_capacity_bounded;
    test "engine: clock advances with events" engine_clock_advances;
    test "engine: nested scheduling" engine_nested_scheduling;
    test "engine: run until horizon" engine_run_until;
    test "engine: scheduling in the past raises" engine_schedule_in_past;
    test "engine: cancellation" engine_cancel;
    test "engine: step" engine_step;
    test "engine: custom start time" engine_start_time;
    test "engine: same-time FIFO determinism" engine_fifo_determinism;
    test "engine: periodic events" engine_every;
    test "engine: stopping a periodic task" engine_every_stop;
    test "engine: heap high-water mark" engine_heap_high_water;
    test "engine: slot and heap ties fire in schedule order" engine_slot_heap_ties;
    test "engine: slot re-arm and disarm" engine_slot_rearm_disarm;
    test "engine: counters include armed slots" engine_slot_counters;
    test "engine: slot arm validation" engine_slot_validation;
    test "engine: slot index growth keeps order" engine_slot_growth;
    prop_slots_match_reference;
    test "engine: 5000-computer fault plan pinned" engine_many_pending_faults_pinned;
  ]
