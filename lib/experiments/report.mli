(** Plain-text rendering of experiment results.

    Produces aligned tables resembling the paper's tables and one-series-
    per-column listings of its figures, suitable for terminal output and
    for diffing across runs. *)

type cell =
  | Text of string
  | Int of int
  | Float of float  (** rendered with 4 significant digits *)
  | Percent of float  (** fraction rendered as a percentage *)
  | Interval of Statsched_stats.Confidence.interval  (** mean ± half-width *)

val cell_to_string : ?pm:string -> cell -> string
(** The one cell format: floats and interval means with 4 significant
    digits, percentages with 2 decimals, half-widths with 2 significant
    digits after [pm] (default [" ±"]); an interval whose half-width is
    NaN shows its mean alone. *)

val render : header:string list -> rows:cell list list -> string
(** Aligned table with a rule under the header.  Columns are padded to
    their widest cell, measured in code points, so a UTF-8 cell such as
    an interval's ["±"] lines up with ASCII ones.

    @raise Invalid_argument if a row width differs from the header. *)

val pp : Format.formatter -> header:string list -> rows:cell list list -> unit

val print_section : string -> unit
(** Banner for an experiment section on stdout, its bars as wide as the
    title in code points plus four. *)

type sweep = {
  title : string;
  xlabel : string;
  columns : string list;  (** algorithm names *)
  rows : (float * cell list) list;  (** x value and one cell per column *)
}

val render_sweep : sweep -> string

val render_csv : header:string list -> rows:cell list list -> string
(** The same table as {!render} in RFC-4180-ish CSV: header line, one line
    per row, commas and double quotes in text cells escaped by quoting.
    Intervals emit ["mean±half"] collapsed to just the mean (use
    {!sweep_to_csv} when the half-widths matter).

    @raise Invalid_argument on ragged rows. *)

val sweep_to_csv : sweep -> string
(** A sweep as CSV with explicit error columns: for each series [S] the
    columns [S] and [S_halfwidth] (empty for non-interval cells). *)
