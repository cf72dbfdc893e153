(** Bounded, append-only structured run journal.

    A journal records fixed-size event records — dispatches, sampled
    queue depths, completion (service) spans, drops and effective-rate
    (fault span) edges — into fixed 4096-record blocks, allocated the
    first time a record lands in them and never copied, so a recording
    site allocates {e nothing} per event and the footprint grows with the
    records kept, never past [O(capacity)] however many events the run
    produces.  With room for every record of a run (and [sample_every]
    1) it never compacts, keeps stride 1 and is the run's complete
    record; [tracestat export] renders it as the per-job CSV or the
    Chrome trace.

    Sampling is systematic 1-in-[k]: each record stream keeps its
    [0]th, [k]th, [2k]th… event.  When the journal fills, it compacts in
    place — every stream drops every other kept record — and doubles
    [k], so a 10⁷-job run degrades gracefully to a sparser but still
    uniform sample instead of growing without bound.  Sampling is
    deterministic (a counter, not a coin flip): journaling can never
    perturb a simulation, and two runs of the same seed produce the same
    journal.

    The on-disk format ({!write}) is a line-oriented text file with a
    trailing FNV-1a checksum, designed to be recomputed-from and
    cross-validated against collector output by [tools/tracestat]; see
    the README ("Observability") for the grammar. *)

type t

type kind = Dispatch | Queue | Completion | Drop | Rate

val create : ?capacity:int -> ?sample_every:int -> unit -> t
(** [capacity] (default 4096, one block) bounds the number of retained
    records; memory grows with the records kept, 48 bytes each, up to
    [capacity] of them;
    [sample_every] (default 1) is the initial sampling stride [k].

    @raise Invalid_argument if [capacity < 16] or [sample_every < 1]. *)

(** {2 Recording}

    All recording functions are allocation-free on the steady path
    (pinned by schedlint rule R8 via [\[@schedsim.hot\]] and by a
    [Gc.minor_words] test); the in-place compaction on overflow is the
    single amortised cold path. *)

val record_dispatch : t -> id:int -> computer:int -> time:float -> size:float -> unit
val record_queue : t -> depth:int -> computer:int -> time:float -> unit

val record_completion :
  t ->
  id:int ->
  computer:int ->
  arrival:float ->
  start:float ->
  completion:float ->
  size:float ->
  unit

val record_drop : t -> id:int -> computer:int -> time:float -> unit
val record_rate : t -> computer:int -> time:float -> rate:float -> unit

(** {2 Inspection} *)

val length : t -> int
(** Records currently retained (≤ [capacity]). *)

val capacity : t -> int

val stride : t -> int
(** Current sampling stride [k]; doubles on each compaction. *)

val seen : t -> kind -> int
(** Events of this kind offered to the journal (sampled or not) —
    the population size a reader should scale sample sums by. *)

val kept : t -> kind -> int
(** Records of this kind currently retained. *)

type record =
  | Dispatch_r of { id : int; computer : int; time : float; size : float }
  | Queue_r of { depth : int; computer : int; time : float }
  | Completion_r of {
      id : int;
      computer : int;
      arrival : float;
      start : float;
      completion : float;
      size : float;
    }
  | Drop_r of { id : int; computer : int; time : float }
  | Rate_r of { computer : int; time : float; rate : float }

val iter : t -> (record -> unit) -> unit
(** Retained records in recording order.  Allocates; not for hot paths. *)

(** {2 Writing} *)

val fnv1a64 : string -> int64
(** The checksum used by the on-disk format: 64-bit FNV-1a over the
    bytes preceding the [checksum] line. *)

val to_string :
  ?meta:(string * string) list -> ?summary:(string * string) list -> t -> string
(** Serialise: header ([statsched-journal v2]), [meta] key/value lines
    (run configuration), sampling state, [summary] key/value lines
    (collector-side results for cross-validation), the records, and the
    checksum line.  Keys must be non-empty and space-free.

    @raise Invalid_argument on a malformed key. *)

val write :
  ?meta:(string * string) list ->
  ?summary:(string * string) list ->
  t ->
  string ->
  unit
(** [write t path] writes the text of {!to_string} to [path] atomically
    (temp file and rename), so a concurrent reader or a crash never
    observes a half-written journal.  The text is streamed a line at a
    time with a running checksum, never held whole in memory.

    @raise Invalid_argument on a malformed key, before [path] or its
    temp file is touched. *)
