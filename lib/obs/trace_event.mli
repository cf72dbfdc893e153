(** Chrome trace-event JSON recording.

    Produces the Trace Event Format understood by Perfetto
    ([ui.perfetto.dev]) and [chrome://tracing]: a flat list of events
    with microsecond timestamps, grouped visually by [(pid, tid)] lanes.
    Timestamps and durations are given to this module in {e simulated
    seconds}; the writer converts to microseconds, so one trace second
    equals one simulated second in the viewer.

    Recording is append-only and O(1) amortised; nothing here reads the
    clock or draws randomness. *)

type t

type arg =
  | Str of string
  | Num of float
  | Int of int

val create : unit -> t

val event_count : t -> int

val complete :
  t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  name:string ->
  ts:float ->
  dur:float ->
  pid:int ->
  tid:int ->
  unit ->
  unit
(** A duration span ([ph = "X"]) from [ts] lasting [dur], both in
    simulated seconds. *)

val instant :
  t ->
  ?cat:string ->
  ?args:(string * arg) list ->
  name:string ->
  ts:float ->
  pid:int ->
  tid:int ->
  unit ->
  unit
(** A zero-duration marker ([ph = "i"], thread scope). *)

val process_name : t -> pid:int -> string -> unit
(** Metadata: label the [pid] lane group. *)

val thread_name : t -> pid:int -> tid:int -> string -> unit
(** Metadata: label one [tid] lane. *)

val to_string : t -> string
(** The complete JSON object ({["{\"traceEvents\": [...]}"]}) — valid
    JSON, events in recording order. *)

val write_json : t -> string -> unit
(** [write_json t path] writes {!to_string} to [path] atomically
    (temp file + rename). *)
