(** The jobs of one simulation run, kept in flat columns.

    A job lives in a {e slot}: an index into one [Float.Array] per float
    field (size, arrival, start, completion, and the work left on the
    serial server that holds it) and one [int array] per int field (id,
    computer).  Servers, schedulers and the collector pass slots and read
    the columns, so no float is ever stored into a record: a float field
    of a mixed record such as {!Job.t} is a 2-word box per store, and in
    OCaml 5 every minor collection that such boxes cause stops every
    domain of the process.

    Slots are recycled through a free-list.  The store starts empty and
    doubles when the free-list runs dry, so it grows to the run's
    in-flight high-water mark and, once there, {!add} and {!release}
    allocate nothing.  A slot's contents are only meaningful between the
    {!add} that returns it and the {!release} that gives it back. *)

type t

val create : unit -> t
(** An empty store; it allocates its columns on the first {!add}. *)

val add : t -> id:int -> size:float -> arrival:float -> int
(** A free slot holding a new job: [computer], [start] and [completion]
    are [-1] until set.  Inlined, so float arguments stay unboxed.

    @raise Invalid_argument if [size <= 0] or [arrival < 0]. *)

val release : t -> int -> unit
(** Give a slot back.  The caller must not read it afterwards. *)

val id : t -> int -> int
val size : t -> int -> float
val arrival : t -> int -> float

val computer : t -> int -> int
val set_computer : t -> int -> int -> unit

val start : t -> int -> float
(** First instant the job received service; [-1] until then. *)

val set_start : t -> int -> float -> unit

val completion : t -> int -> float
(** Departure time; [-1] until completed. *)

val set_completion : t -> int -> float -> unit

val left : t -> int -> float
(** Work left (speed-1 seconds) when the job's next service slice
    begins.  Only {!Serial_server} reads and writes it. *)

val set_left : t -> int -> float -> unit

val capacity : t -> int
(** Slots allocated so far: the in-flight high-water mark, rounded up
    to a power of two (at least 16). *)
