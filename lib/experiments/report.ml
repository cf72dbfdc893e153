module Confidence = Statsched_stats.Confidence

type cell =
  | Text of string
  | Int of int
  | Float of float
  | Percent of float
  | Interval of Confidence.interval

let cell_to_string ?(pm = " ±") = function
  | Text s -> s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.4g" f
  | Percent f -> Printf.sprintf "%.2f%%" (100.0 *. f)
  | Interval i ->
    if Float.is_nan i.Confidence.half_width then
      Printf.sprintf "%.4g" i.Confidence.mean
    else Printf.sprintf "%.4g%s%.2g" i.Confidence.mean pm i.Confidence.half_width

(* Display width in code points: every byte but a UTF-8 continuation byte
   starts one, so the two-byte "±" counts once. *)
let width s =
  String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let render ~header ~rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Report.render: ragged row")
    rows;
  let string_rows = List.map (List.map (fun c -> cell_to_string c)) rows in
  let widths = Array.of_list (List.map width header) in
  List.iter (List.iteri (fun i s -> widths.(i) <- max widths.(i) (width s))) string_rows;
  let buf = Buffer.create 256 in
  let emit_row cells =
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf s;
        Buffer.add_string buf (String.make (widths.(i) - width s) ' '))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row string_rows;
  Buffer.contents buf

let pp fmt ~header ~rows = Format.pp_print_string fmt (render ~header ~rows)

let print_section title =
  let bar = String.make (width title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" bar title bar

type sweep = {
  title : string;
  xlabel : string;
  columns : string list;
  rows : (float * cell list) list;
}

let render_sweep s =
  let header = s.xlabel :: s.columns in
  let rows = List.map (fun (x, cells) -> Float x :: cells) s.rows in
  Printf.sprintf "%s\n%s" s.title (render ~header ~rows)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let cell_to_csv = function
  | Text s -> csv_escape s
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.9g" f
  | Percent f -> Printf.sprintf "%.9g" f
  | Interval i -> Printf.sprintf "%.9g" i.Confidence.mean

let render_csv ~header ~rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Report.render_csv: ragged row")
    rows;
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape header));
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map cell_to_csv row));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let sweep_to_csv s =
  let header =
    s.xlabel :: List.concat_map (fun c -> [ c; c ^ "_halfwidth" ]) s.columns
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (List.map csv_escape header));
  Buffer.add_char buf '\n';
  List.iter
    (fun (x, cells) ->
      let fields =
        Printf.sprintf "%.9g" x
        :: List.concat_map
             (fun cell ->
               match cell with
               | Interval i ->
                 [
                   Printf.sprintf "%.9g" i.Confidence.mean;
                   (if Float.is_nan i.Confidence.half_width then ""
                    else Printf.sprintf "%.9g" i.Confidence.half_width);
                 ]
               | other -> [ cell_to_csv other; "" ])
             cells
      in
      Buffer.add_string buf (String.concat "," fields);
      Buffer.add_char buf '\n')
    s.rows;
  Buffer.contents buf
