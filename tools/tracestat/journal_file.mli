(** Reader for the [statsched-journal v2] on-disk format written by
    {!Statsched_obs.Journal.write} / [Cluster.Telemetry.write_journal]. *)

type t = {
  meta : (string * string) list;
  summary : (string * string) list;
  stride : int;  (** final sampling stride *)
  seen : (string * int) list;  (** events offered per stream, by kind name *)
  records : Statsched_obs.Journal.record array;  (** in recording order *)
}

type error =
  | Corrupt of string
      (** checksum mismatch, truncation, or a malformed line — the file
          cannot be trusted *)
  | Unsupported of string  (** a format version this reader doesn't know *)

val parse : string -> (t, error) result
(** Parse file contents.  The trailing [checksum fnv1a64] line is
    verified against the preceding bytes; any mismatch, a missing
    checksum, or a record count disagreeing with the [records N] header
    yields [Corrupt]. *)

val load : string -> (t, error) result
(** [load path] reads and {!parse}s; I/O errors surface as [Corrupt]. *)

val seen_of : t -> string -> int
(** Events offered for a kind name ([dispatch], [queue], [completion],
    [drop], [rate]); 0 when absent. *)

val meta_float : t -> string -> float option
val summary_float : t -> string -> float option
