(** Future-event list: a binary min-heap keyed by timestamp.

    Ties are broken by insertion order (FIFO), which makes simulations
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.  Cancellation is supported through handles:
    [cancel] finds the event by a scan and removes it in place, so it is
    O(pending) and the heap never holds a cancelled entry.

    The engine's future-event list is one such queue; it carries
    one-shot events (arrivals, faults, warm-up, periodic ticks) but no
    server completions, which live in the engine's completion slots
    ({!Engine.slot}).  Servers also keep their own queues (a PS server's
    jobs by virtual finish time, SRPT's ready list).

    A handle is the event's sequence number, which is never reused, so a
    stale handle cannot cancel a later event.  Memory is O(maximum
    concurrently pending), independent of the total number of events
    ever scheduled. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type handle
(** Identifies a scheduled event for cancellation. *)

val no_handle : handle
(** A sentinel never returned by {!add}: [cancel q no_handle] is [false]
    and allocates nothing.  Lets callers store "no pending event" in a
    plain mutable field instead of a [handle option] (an allocation per
    reschedule on hot paths). *)

val create : unit -> 'a t
(** An empty queue. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of pending events: added, not yet fired or cancelled. *)

val add : 'a t -> time:float -> 'a -> handle
(** [add q ~time x] schedules [x] at [time] and returns a cancellation
    handle.  Times may be in any order but must be finite.

    @raise Invalid_argument if [time] is NaN or infinite. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event identified by [h] if it is still
    pending; returns [false] if it already fired or was already
    cancelled.  O(pending): it scans for the event, then removes it in
    place. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest live event as [(time, payload)]. *)

(** {2 Allocation-free hot path}

    The engine's event loop runs millions of events per simulated run, so
    the queue also exposes an interface that never allocates: [next_time]
    returns a plain float ([nan] encodes "empty"), and [pop_step] removes
    the earliest live event and parks it in a scratch slot read back with
    [last_time]/[last_payload]. *)

val next_time : 'a t -> float
(** Timestamp of the earliest live event, or [Float.nan] when the queue
    is empty. *)

val pop_step : 'a t -> bool
(** Remove the earliest live event without allocating; returns [false]
    when the queue is empty.  On [true], the event is available through
    {!last_time} and {!last_payload} until the next queue operation. *)

val last_time : 'a t -> float
(** Time of the event removed by the last successful {!pop_step}
    ([Float.nan] before the first one). *)

val last_payload : 'a t -> 'a
(** Payload of the event removed by the last successful {!pop_step}.
    Only meaningful immediately after [pop_step] returned [true]; raises
    [Invalid_argument] if the queue never held an event. *)

(** {2 Sequence numbers}

    Every {!add} stamps its event with the next number of one counter,
    and equal timestamps pop in stamp order.  A caller that keeps timed
    entries of its own (the engine's completion slots) can draw stamps
    from the same counter and compare against the earliest event here,
    so its entries and this queue's interleave in one FIFO order. *)

val take_seq : 'a t -> int
(** Draw the next sequence number, as an {!add} would. *)

val top_seq : 'a t -> int
(** Sequence number of the earliest event.  Only meaningful when the
    queue is not empty. *)

val heap_ordered : 'a t -> bool
(** Audit the heap property: every parent precedes its children in
    [(time, insertion order)].  Always [true] unless the queue's
    internals have been corrupted; O(n), intended for runtime sanitizers
    and tests. *)

(**/**)

module Testing : sig
  val corrupt : 'a t -> unit
  (** Deliberately break the heap order of a queue holding at least two
      entries (moves the root after the last entry, bypassing sifting).
      Exists only so tests can prove {!heap_ordered} and the sanitizers
      actually fire; never call it elsewhere. *)

  val capacity : 'a t -> int
  (** Cells allocated for the heap arrays — the memory-regression test
      bounds this by a multiple of the most events ever pending at once,
      independent of the total event count. *)
end
