module Journal = Statsched_obs.Journal

type t = {
  meta : (string * string) list;
  summary : (string * string) list;
  stride : int;
  seen : (string * int) list;
  records : Statsched_obs.Journal.record array;
}

type error = Corrupt of string | Unsupported of string

let ( let* ) = Result.bind

let int_of ~what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Corrupt (Printf.sprintf "malformed %s %S" what s))

(* Split off the first space-separated token. *)
let cut line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let verify_checksum content =
  (* The checksum line covers every byte before it; it is itself the
     last line of the file. *)
  let len = String.length content in
  if len = 0 || not (Char.equal content.[len - 1] '\n') then
    Error (Corrupt "truncated: no trailing newline")
  else
    match String.rindex_from_opt content (len - 2) '\n' with
    | None -> Error (Corrupt "truncated: missing checksum line")
    | Some i ->
      let last = String.sub content (i + 1) (len - i - 2) in
      (match String.split_on_char ' ' last with
      | [ "checksum"; "fnv1a64"; hex ] ->
        let body = String.sub content 0 (i + 1) in
        let expected = Printf.sprintf "%016Lx" (Journal.fnv1a64 body) in
        if String.equal hex expected then Ok body
        else
          Error
            (Corrupt
               (Printf.sprintf "checksum mismatch: file says %s, content is %s"
                  hex expected))
      | _ -> Error (Corrupt "truncated: missing checksum line"))

let parse_record ~lineno tag rest =
  let fail () =
    Error (Corrupt (Printf.sprintf "line %d: malformed record %S" lineno rest))
  in
  let fields = String.split_on_char ' ' rest in
  let num s = float_of_string_opt s in
  let idx s = int_of_string_opt s in
  match (tag, fields) with
  | "D", [ a; b; c; d ] -> (
    match (idx a, idx b, num c, num d) with
    | Some id, Some computer, Some time, Some size ->
      Ok (Journal.Dispatch_r { id; computer; time; size })
    | _ -> fail ())
  | "Q", [ a; b; c ] -> (
    match (idx a, idx b, num c) with
    | Some depth, Some computer, Some time ->
      Ok (Journal.Queue_r { depth; computer; time })
    | _ -> fail ())
  | "C", [ a; b; c; d; e; f ] -> (
    match (idx a, idx b, num c, num d, num e, num f) with
    | Some id, Some computer, Some arrival, Some start, Some completion, Some size
      ->
      Ok (Journal.Completion_r { id; computer; arrival; start; completion; size })
    | _ -> fail ())
  | "X", [ a; b; c ] -> (
    match (idx a, idx b, num c) with
    | Some id, Some computer, Some time ->
      Ok (Journal.Drop_r { id; computer; time })
    | _ -> fail ())
  | "R", [ _; b; c; d ] -> (
    match (idx b, num c, num d) with
    | Some computer, Some time, Some rate ->
      Ok (Journal.Rate_r { computer; time; rate })
    | _ -> fail ())
  | _ -> fail ()

let parse content =
  let* body = verify_checksum content in
  let lines = String.split_on_char '\n' body in
  match lines with
  | header :: rest when String.equal header "statsched-journal v2" ->
    let meta = ref [] in
    let summary = ref [] in
    let stride = ref 1 in
    let seen = ref [] in
    let declared = ref (-1) in
    let records = ref [] in
    let nrecords = ref 0 in
    let rec go lineno = function
      | [] | [ "" ] -> Ok ()
      | line :: tl ->
        let* () =
          let tag, rest = cut line in
          match tag with
          | "meta" ->
            let k, v = cut rest in
            meta := (k, v) :: !meta;
            Ok ()
          | "summary" ->
            let k, v = cut rest in
            summary := (k, v) :: !summary;
            Ok ()
          | "stride" ->
            let* s = int_of ~what:"stride" rest in
            stride := s;
            Ok ()
          | "seen" ->
            let k, v = cut rest in
            let* c = int_of ~what:"seen count" v in
            seen := (k, c) :: !seen;
            Ok ()
          | "records" ->
            let* n = int_of ~what:"record count" rest in
            declared := n;
            Ok ()
          | "D" | "Q" | "C" | "X" | "R" ->
            let* r = parse_record ~lineno tag rest in
            records := r :: !records;
            incr nrecords;
            Ok ()
          | _ -> Error (Corrupt (Printf.sprintf "line %d: unknown line %S" lineno line))
        in
        go (lineno + 1) tl
    in
    let* () = go 2 rest in
    if !declared >= 0 && !declared <> !nrecords then
      Error
        (Corrupt
           (Printf.sprintf "record count mismatch: header says %d, file has %d"
              !declared !nrecords))
    else
      Ok
        {
          meta = List.rev !meta;
          summary = List.rev !summary;
          stride = !stride;
          seen = List.rev !seen;
          records = Array.of_list (List.rev !records);
        }
  | header :: _ when String.length header >= 18
                     && String.equal (String.sub header 0 18) "statsched-journal " ->
    Error (Unsupported header)
  | _ -> Error (Corrupt "not a statsched journal")

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> parse content
  | exception Sys_error m -> Error (Corrupt m)

let seen_of t kind =
  match List.assoc_opt kind t.seen with Some n -> n | None -> 0

let meta_float t k = Option.bind (List.assoc_opt k t.meta) float_of_string_opt

let summary_float t k =
  Option.bind (List.assoc_opt k t.summary) float_of_string_opt
