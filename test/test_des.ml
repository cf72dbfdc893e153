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
  Alcotest.(check (option (float 0.0))) "peek empty" None (Event_queue.peek_time q);
  let h = Event_queue.add q ~time:4.0 () in
  ignore (Event_queue.add q ~time:7.0 ());
  Alcotest.(check (option (float 0.0))) "peek min" (Some 4.0) (Event_queue.peek_time q);
  ignore (Event_queue.cancel q h);
  Alcotest.(check (option (float 0.0))) "peek skips cancelled" (Some 7.0)
    (Event_queue.peek_time q)

let eq_nonfinite_rejected () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: non-finite time")
    (fun () -> ignore (Event_queue.add q ~time:Float.nan ()));
  Alcotest.check_raises "inf" (Invalid_argument "Event_queue.add: non-finite time")
    (fun () -> ignore (Event_queue.add q ~time:Float.infinity ()))

let eq_clear () =
  let q = Event_queue.create () in
  for i = 1 to 10 do
    ignore (Event_queue.add q ~time:(float_of_int i) ())
  done;
  Event_queue.clear q;
  Alcotest.(check bool) "empty after clear" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair (float 0.0) unit))) "pop empty" None (Event_queue.pop q)

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
  Array.sort compare sorted;
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
(* Memory behaviour: cleared and cancelled events must not be retained *)
(* by the heap array (regression for the clear/cancel space leak).     *)

let add_tracked q (w : float array Weak.t) i ~time =
  (* Allocate the payload inside a helper so no local binding keeps it
     alive; only the queue (and the weak table) can reach it. *)
  let payload = Array.make 64 (float_of_int i) in
  Weak.set w i (Some payload);
  Event_queue.add q ~time payload

let eq_clear_releases_payloads () =
  let q = Event_queue.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    ignore (add_tracked q w i ~time:(float_of_int i))
  done;
  Event_queue.clear q;
  Gc.full_major ();
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after clear" i)
      true
      (Weak.get w i = None)
  done;
  (* The queue stays usable after clear. *)
  ignore (Event_queue.add q ~time:1.0 [| 0.0 |]);
  Alcotest.(check int) "usable after clear" 1 (Event_queue.size q)

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
     legitimately stay reachable until [clear]; everything else must go. *)
  for i = 1 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected after pop" i)
      true
      (Weak.get w i = None)
  done

let eq_cancel_compacts () =
  let n = 200 in
  let q = Event_queue.create () in
  let w = Weak.create n in
  let handles =
    Array.init n (fun i -> add_tracked q w i ~time:(float_of_int i))
  in
  (* Cancel everything but the first ten.  Lazy deletion keeps entries
     in the heap, but once live entries fall far below the heap length
     the queue must compact and drop the garbage. *)
  for i = 10 to n - 1 do
    Alcotest.(check bool) "cancel succeeds" true (Event_queue.cancel q handles.(i))
  done;
  Alcotest.(check int) "live size" 10 (Event_queue.size q);
  Gc.full_major ();
  let reclaimed = ref 0 in
  for i = 10 to n - 1 do
    if Weak.get w i = None then incr reclaimed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most cancelled payloads reclaimed (%d of %d)" !reclaimed
       (n - 10))
    true
    (!reclaimed >= (n - 10) / 2);
  (* Compaction must not disturb the pop order of the survivors. *)
  let popped = List.init 10 (fun _ -> fst (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list (float 0.0))) "survivors pop in order"
    (List.init 10 float_of_int) popped;
  Alcotest.(check bool) "then empty" true (Event_queue.pop q = None)

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

let eq_high_water () =
  let q = Event_queue.create () in
  Alcotest.(check int) "empty" 0 (Event_queue.high_water q);
  let _ = Event_queue.add q ~time:1.0 "a" in
  let _ = Event_queue.add q ~time:2.0 "b" in
  let _ = Event_queue.add q ~time:3.0 "c" in
  let _ = Event_queue.add q ~time:4.0 "d" in
  let _ = Event_queue.add q ~time:5.0 "e" in
  Alcotest.(check int) "after five adds" 5 (Event_queue.high_water q);
  ignore (Event_queue.pop q);
  ignore (Event_queue.pop q);
  let _ = Event_queue.add q ~time:6.0 "f" in
  (* 3 live + 1 = 4 < 5, so the lifetime high-water mark sticks at 5. *)
  Alcotest.(check int) "high-water not lowered by pops" 5 (Event_queue.high_water q);
  Event_queue.clear q;
  Alcotest.(check int) "survives clear" 5 (Event_queue.high_water q)

let engine_heap_high_water () =
  let e = Engine.create () in
  for i = 1 to 7 do
    ignore (Engine.schedule_at e ~time:(float_of_int i) (fun _ -> ()))
  done;
  Engine.run e;
  Alcotest.(check int) "seven simultaneous pending events" 7
    (Engine.heap_high_water e)

let eq_hot_path_no_alloc () =
  (* The SoA queue must not allocate per event once its buffers are
     sized: [add] with a statically-allocated time, [pop_step] and the
     scratch reads all work in place.  Warm up (sizing the heap arrays,
     the cancellation bitmap and the scratch slots), drain — the empty
     branch of [pop_step] recycles the bitmap — then measure a full
     add/drain cycle under [Gc.minor_words]. *)
  let n = 512 in
  let q = Event_queue.create ~initial_capacity:(n + 1) () in
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

let model_prop ~name ~make_queue =
  (* Model-based check of the SoA heap against a sorted-list oracle:
     coarse times force ties (FIFO order must match insertion order),
     and cancellations hit live, popped and already-cancelled events. *)
  qcheck ~count:300 name
    QCheck2.Gen.(
      list_size (int_range 0 150)
        (oneof
           [
             map (fun t -> `Add (float_of_int t /. 4.0)) (int_range 0 30);
             map (fun k -> `Cancel k) (int_range 0 1000);
             return `Pop;
           ]))
    (fun ops ->
      let q = make_queue () in
      (* Insertion-ordered record of every add: id -> (handle, time). *)
      let added = ref [] in
      let n_added = ref 0 in
      (* Live oracle entries (time, id), sorted by time then id. *)
      let live = ref [] in
      let insert t id =
        let rec go = function
          | [] -> [ (t, id) ]
          | (t', id') :: rest when t' <= t -> (t', id') :: go rest
          | later -> (t, id) :: later
        in
        live := go !live
      in
      let ok = ref true in
      let fail_if b = if b then ok := false in
      List.iter
        (fun op ->
          (if !ok then
             match op with
             | `Add t ->
               let h = Event_queue.add q ~time:t !n_added in
               added := (h, t) :: !added;
               insert t !n_added;
               incr n_added
             | `Cancel k ->
               if !n_added > 0 then begin
                 let id = k mod !n_added in
                 let h, _ = List.nth !added (!n_added - 1 - id) in
                 let expected = List.exists (fun (_, id') -> id' = id) !live in
                 fail_if (Event_queue.cancel q h <> expected);
                 if expected then
                   live := List.filter (fun (_, id') -> id' <> id) !live
               end
             | `Pop -> (
               match (Event_queue.pop q, !live) with
               | None, [] -> ()
               | Some (t, id), (t', id') :: rest ->
                 fail_if (not (Float.equal t t') || id <> id');
                 live := rest
               | _ -> ok := false));
          if !ok then begin
            fail_if (Event_queue.size q <> List.length !live);
            fail_if (not (Event_queue.heap_ordered q));
            match (Event_queue.peek_time q, !live) with
            | None, [] -> ()
            | Some t, (t', _) :: _ -> fail_if (not (Float.equal t t'))
            | _ -> ok := false
          end)
        ops;
      !ok)

let prop_eq_model =
  model_prop ~name:"model: heap matches sorted-list oracle"
    ~make_queue:(fun () -> Event_queue.create ())

let prop_eq_model_ladder =
  (* Same oracle with the far band forced on almost immediately: every
     interleaving of adds, cancels and pops must pop bit-identically to
     the sorted list even while events migrate between the bands. *)
  model_prop ~name:"model: ladder bands match sorted-list oracle"
    ~make_queue:(fun () -> Event_queue.create ~ladder_threshold:4 ())

let eq_ladder_pop_identical () =
  (* The banding must be invisible: a plain heap and a queue with a tiny
     ladder threshold fed the same event stream (coarse times to force
     FIFO ties, interleaved cancellations) pop bit-identical
     (time, payload) streams. *)
  let g = rng () in
  let n = 20_000 in
  let plain = Event_queue.create () in
  let ladder = Event_queue.create ~ladder_threshold:64 () in
  let hp = Array.make n Event_queue.no_handle in
  let hl = Array.make n Event_queue.no_handle in
  for i = 0 to n - 1 do
    let t = float_of_int (Statsched_prng.Rng.int g 5000) /. 8.0 in
    hp.(i) <- Event_queue.add plain ~time:t i;
    hl.(i) <- Event_queue.add ladder ~time:t i;
    (* Interleave pops and cancellations so migration happens mid-run. *)
    if i land 7 = 3 then begin
      let k = Statsched_prng.Rng.int g (i + 1) in
      let cp = Event_queue.cancel plain hp.(k) in
      let cl = Event_queue.cancel ladder hl.(k) in
      Alcotest.(check bool) "cancel outcomes agree" cp cl
    end;
    if i land 15 = 9 then begin
      match (Event_queue.pop plain, Event_queue.pop ladder) with
      | Some (tp, ip), Some (tl, il) ->
        if not (Float.equal tp tl) || ip <> il then
          Alcotest.fail "mid-run pops diverge"
      | None, None -> ()
      | _ -> Alcotest.fail "mid-run pop presence diverges"
    end
  done;
  Alcotest.(check bool) "far band actually exercised" true
    (Event_queue.Testing.band_active ladder
    || Event_queue.Testing.far_size ladder = 0);
  let rec drain () =
    match (Event_queue.pop plain, Event_queue.pop ladder) with
    | Some (tp, ip), Some (tl, il) ->
      if not (Float.equal tp tl) || ip <> il then
        Alcotest.fail "drain pops diverge";
      drain ()
    | None, None -> ()
    | _ -> Alcotest.fail "queues disagree on emptiness"
  in
  drain ()

let eq_slot_table_bounded () =
  (* Regression for the O(total-events) cancellation bitmap: with 10^4
     events pending at all times and 2 * 10^5 scheduled over the run —
     half of them cancelled, so lazy deletion and compaction both run —
     the cancellation bookkeeping must stay proportional to the
     concurrent high-water mark, and the stored entries (live + not yet
     compacted) proportional to the live count. *)
  let pending = 10_000 in
  let churn = 200_000 in
  let q = Event_queue.create ~ladder_threshold:1024 () in
  let handles = Array.make pending Event_queue.no_handle in
  for i = 0 to pending - 1 do
    handles.(i) <- Event_queue.add q ~time:(float_of_int i) i
  done;
  let g = rng () in
  for j = 0 to churn - 1 do
    let slot = j mod pending in
    (* Alternate between firing the replaced event and cancelling it. *)
    if j land 1 = 0 then ignore (Event_queue.cancel q handles.(slot))
    else ignore (Event_queue.pop q);
    let t = float_of_int (pending + j) +. Statsched_prng.Rng.float g in
    handles.(slot) <- Event_queue.add q ~time:t slot
  done;
  let hwm = Event_queue.high_water q in
  let cap = Event_queue.Testing.slot_capacity q in
  Alcotest.(check bool)
    (Printf.sprintf "slot table O(high-water): capacity %d vs high-water %d"
       cap hwm)
    true
    (cap <= (4 * hwm) + 64);
  let live = Event_queue.size q in
  let stored = Event_queue.Testing.stored q in
  Alcotest.(check bool)
    (Printf.sprintf "dead retention O(live): stored %d vs live %d" stored live)
    true
    (stored <= (4 * live) + 64);
  Alcotest.(check bool) "invariants hold after churn" true
    (Event_queue.heap_ordered q)

let suite =
  [
    test "event_queue: basic ordering" eq_ordering;
    test "event_queue: FIFO tie-breaking" eq_fifo_ties;
    test "event_queue: cancellation" eq_cancel;
    test "event_queue: cancel after pop" eq_cancel_after_pop;
    test "event_queue: peek" eq_peek;
    test "event_queue: non-finite time rejected" eq_nonfinite_rejected;
    test "event_queue: clear" eq_clear;
    test "event_queue: clear releases payloads" eq_clear_releases_payloads;
    test "event_queue: pop releases payloads" eq_pop_releases_payloads;
    test "event_queue: cancellation compacts the heap" eq_cancel_compacts;
    test "event_queue: random stress" eq_random_stress;
    test "event_queue: hot path does not allocate" eq_hot_path_no_alloc;
    prop_eq_sorted;
    prop_eq_model;
    prop_eq_model_ladder;
    test "event_queue: ladder pops bit-identical to plain heap"
      eq_ladder_pop_identical;
    test "event_queue: slot table bounded by high-water" eq_slot_table_bounded;
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
    test "event_queue: heap high-water mark" eq_high_water;
    test "engine: heap high-water mark" engine_heap_high_water;
  ]
