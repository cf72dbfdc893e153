(** Discrete-event simulation engine.

    A conventional event-scheduling world view: a simulation clock, a
    future-event list ({!Event_queue}), and callbacks fired in timestamp
    order.  The clock only moves forward; scheduling into the past is a
    programming error and raises.

    Events come from two sources.  One-shot events ({!schedule}:
    arrivals, faults, warm-up, periodic ticks) go on the future-event
    list.  Server completions use {e completion slots} ({!slot}): a
    fixed callback with at most one pending firing, re-armed in place,
    so the future-event list never carries them.  {!step} fires the
    earlier of the two; at equal timestamps events fire in the order
    they were scheduled or armed, whichever source they come from. *)

type t
(** An engine instance.  Engines are independent; a program may run many
    (e.g. one per replication, possibly in parallel at the OS level). *)

type event_handle = Event_queue.handle

exception Schedule_in_past of { now : float; requested : float }

val create : ?start_time:float -> unit -> t
(** A fresh engine with clock at [start_time] (default 0). *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> delay:float -> (t -> unit) -> event_handle
(** [schedule e ~delay f] fires [f e] at [now e +. delay].  [delay >= 0].

    @raise Schedule_in_past if [delay < 0]. *)

val schedule_at : t -> time:float -> (t -> unit) -> event_handle
(** [schedule_at e ~time f] fires [f e] at absolute [time >= now e].

    @raise Schedule_in_past if [time < now e]. *)

val cancel : t -> event_handle -> bool
(** Cancel a pending event; [false] if it already fired or was cancelled. *)

val pending_events : t -> int
(** Number of events still scheduled: live heap events plus armed
    slots. *)

(** {2 Completion slots} *)

type slot
(** A registered callback with at most one pending firing. *)

val no_slot : slot
(** A sentinel never returned by {!slot}, for a record field that is
    filled in once the record exists: {!arm}, {!disarm} and {!armed} on
    it raise [Invalid_argument]. *)

val slot : t -> (t -> unit) -> slot
(** [slot e f] registers [f] as a new, disarmed slot.  Slots live as
    long as the engine. *)

val arm : t -> slot -> delay:float -> unit
(** [arm e s ~delay] makes [s] fire at [now e +. delay], replacing any
    pending firing.  Ties with other events break as if [s] were
    scheduled now with {!schedule}.  The engine disarms [s] just before
    calling its callback, which may re-arm it.

    @raise Schedule_in_past if [delay < 0].
    @raise Invalid_argument if the firing time is NaN or infinite. *)

val disarm : t -> slot -> unit
(** Drop the pending firing, if any.  Idempotent. *)

val armed : t -> slot -> bool
(** Whether [s] has a pending firing ([false] inside its own callback). *)

(** {2 Running} *)

val step : t -> bool
(** Execute the single earliest event; [false] if the queue is empty. *)

val run : ?until:float -> t -> unit
(** [run e ~until] executes events in order until the queue is empty or
    the next event is strictly after [until]; the clock is then advanced
    to [until] (or left at the last event time when [until] is omitted).
    Events scheduled by callbacks are honoured. *)

val events_executed : t -> int
(** Total callbacks fired since creation (instrumentation). *)

type snapshot = {
  snap_now : float;
  snap_events_executed : int;
  snap_pending : int;
  snap_heap_high_water : int;
}
(** A point-in-time view of the engine's progress counters. *)

val snapshot : t -> snapshot
(** Read the clock and instrumentation counters in one call — the live
    telemetry server polls this from its serving systhread while the
    simulation runs on the main one (systhreads interleave under the
    runtime lock, so the reads are well-defined; the snapshot may lag
    the very latest event by a few callbacks, which is fine for
    monitoring). *)

val heap_high_water : t -> int
(** High-water mark of pending events: the largest {!pending_events}
    observed at any point (instrumentation — a proxy for the simulator's
    event-set pressure). *)

val heap_ordered : t -> bool
(** Audit both event sources.  The future-event list is one binary
    heap, so every parent must precede its children
    ({!Event_queue.heap_ordered}).  In the slot index every node of the
    winner tree must hold the [(time, seq)] minimum of its children, and
    the armed count must equal the number of finite slot times.
    O(pending events + slots). *)

(**/**)

module Testing : sig
  val corrupt_heap : t -> unit
  (** Test-only: corrupt the future-event list so {!heap_ordered} turns
      false; see {!Event_queue.Testing.corrupt}. *)

  val corrupt_slots : t -> unit
  (** Test-only: put the wrong slot at the root of the slot index, so
      {!heap_ordered} turns false. *)

  val heap_stored : t -> int
  (** Entries stored in the future-event list (it holds no cancelled
      ones), leaving out the armed completion slots. *)

  val slot_capacity : t -> int
  (** Leaves of the slot index (16 until more slots are registered). *)
end

type periodic
(** A running periodic task, as returned by {!every}. *)

val every : t -> period:float -> (t -> unit) -> periodic
(** [every e ~period f] fires [f] at [now + period], [now + 2·period], …
    until {!stop}ped (each firing schedules the next).

    @raise Invalid_argument if [period <= 0]. *)

val stop : t -> periodic -> unit
(** Cancel the task's pending tick, so [f] never fires again and the task
    leaves no pending event.  Idempotent; safe to call from inside [f]. *)
