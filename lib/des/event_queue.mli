(** Future-event list: a binary min-heap with a calendar-style overflow
    band, keyed by timestamp.

    Ties are broken by insertion order (FIFO), which makes simulations
    deterministic: two events scheduled for the same instant fire in the
    order they were scheduled.  Cancellation is supported through handles
    with lazy deletion, so cancelling is O(1) and the cost is absorbed at
    pop time.

    The engine's future-event list is one such queue; it carries
    one-shot events (arrivals, faults, warm-up, periodic ticks) but no
    server completions, which live in the engine's completion slots
    ({!Engine.slot}).  Servers also keep their own queues (a PS server's
    jobs by virtual finish time, SRPT's ready list).

    While the pending-event count stays under [ladder_threshold] this is
    a plain binary heap.  Past the threshold (a queue holding thousands
    of entries, such as a heavily loaded PS server's job set or a
    many-server fault plan) a far band activates automatically: events beyond an adaptive time boundary
    are appended unsorted in O(1) and heapified in slices of ~threshold
    when the near heap drains.  The banding is invisible through this
    interface — pop order depends only on [(time, insertion order)].

    Handles are slot-table based: memory for cancellation bookkeeping is
    O(maximum concurrently pending), independent of the total number of
    events ever scheduled. *)

type 'a t
(** A queue of events carrying payloads of type ['a]. *)

type handle
(** Identifies a scheduled event for cancellation. *)

val no_handle : handle
(** A sentinel never returned by {!add}: [cancel q no_handle] is [false]
    and allocates nothing.  Lets callers store "no pending event" in a
    plain mutable field instead of a [handle option] (an allocation per
    reschedule on hot paths). *)

val is_handle : handle -> bool
(** [is_handle h] is [false] exactly for {!no_handle}. *)

val create : ?initial_capacity:int -> ?ladder_threshold:int -> unit -> 'a t
(** An empty queue.  [ladder_threshold] (default 4096) is the heap size
    past which the far band activates; tests force small values to
    exercise the banding, the engine keeps the default.

    @raise Invalid_argument if [ladder_threshold < 1]. *)

val is_empty : 'a t -> bool

val size : 'a t -> int
(** Number of live (non-cancelled) events. *)

val add : 'a t -> time:float -> 'a -> handle
(** [add q ~time x] schedules [x] at [time] and returns a cancellation
    handle.  Times may be in any order but must be finite.

    @raise Invalid_argument if [time] is NaN or infinite. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event identified by [h] if it is still
    pending; returns [false] if it already fired or was already
    cancelled. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest live event. *)

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
    is empty — an allocation-free {!peek_time}. *)

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
(** Sequence number of the earliest live event.  Only meaningful right
    after {!next_time} returned a number (it drops cancelled roots). *)

val clear : 'a t -> unit
(** Drop all events and release the backing storage, so queued payloads
    become collectable immediately. *)

val high_water : 'a t -> int
(** Largest number of live events ever pending simultaneously over the
    queue's lifetime (not reset by {!clear}) — the simulator's
    memory-pressure proxy. *)

val heap_ordered : 'a t -> bool
(** Audit the internal invariants: the heap property (every parent
    precedes its children) and the band split (near-band times not
    beyond the boundary, far-band times not before it).  Always [true]
    unless the queue's internals have been corrupted; O(n), intended for
    runtime sanitizers and tests. *)

(**/**)

module Testing : sig
  val corrupt : 'a t -> unit
  (** Deliberately break the heap order of a queue holding at least two
      entries (moves the root after the last entry, bypassing sifting).
      Exists only so tests can prove {!heap_ordered} and the sanitizers
      actually fire; never call it elsewhere. *)

  val stored : 'a t -> int
  (** Entries physically stored across both bands, including
      lazily-cancelled ones — the compaction tests bound this by a
      multiple of {!size}. *)

  val far_size : 'a t -> int
  (** Entries currently in the far band. *)

  val band_active : 'a t -> bool
  (** Whether the far band is currently enabled (boundary finite). *)

  val slot_capacity : 'a t -> int
  (** Capacity of the cancellation slot table — the memory-regression
      test bounds this by a multiple of {!high_water}, independent of
      the total event count. *)
end
