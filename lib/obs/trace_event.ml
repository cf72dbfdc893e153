type arg =
  | Str of string
  | Num of float
  | Int of int

type event = {
  name : string;
  cat : string;
  ph : string;
  ts : float;  (* microseconds *)
  dur : float option;  (* microseconds, complete events only *)
  pid : int;
  tid : int option;
  args : (string * arg) list;
}

(* Growable buffer, Buffer-style doubling. *)
type t = { mutable events : event array; mutable len : int }

let create () = { events = [||]; len = 0 }

let push t e =
  let cap = Array.length t.events in
  if t.len = cap then begin
    let ncap = max 256 (2 * cap) in
    let nevents = Array.make ncap e in
    Array.blit t.events 0 nevents 0 t.len;
    t.events <- nevents
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let event_count t = t.len

let us seconds = seconds *. 1e6

let complete t ?(cat = "") ?(args = []) ~name ~ts ~dur ~pid ~tid () =
  push t
    { name; cat; ph = "X"; ts = us ts; dur = Some (us dur); pid; tid = Some tid; args }

let instant t ?(cat = "") ?(args = []) ~name ~ts ~pid ~tid () =
  push t { name; cat; ph = "i"; ts = us ts; dur = None; pid; tid = Some tid; args }

let process_name t ~pid name =
  push t
    {
      name = "process_name";
      cat = "";
      ph = "M";
      ts = 0.0;
      dur = None;
      pid;
      tid = None;
      args = [ ("name", Str name) ];
    }

let thread_name t ~pid ~tid name =
  push t
    {
      name = "thread_name";
      cat = "";
      ph = "M";
      ts = 0.0;
      dur = None;
      pid;
      tid = Some tid;
      args = [ ("name", Str name) ];
    }

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no Infinity/NaN literals; clamp the (instrumentation-only)
   oddball to 0 rather than emit an unparseable file. *)
let add_json_float buf x =
  if Float.is_nan x || Float.equal (abs_float x) infinity then Buffer.add_char buf '0'
  else if Float.is_integer x && abs_float x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let add_arg buf = function
  | Str s -> add_json_string buf s
  | Num x -> add_json_float buf x
  | Int i -> Buffer.add_string buf (string_of_int i)

let add_event buf e =
  Buffer.add_string buf "{\"name\":";
  add_json_string buf e.name;
  if e.cat <> "" then begin
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf e.cat
  end;
  Buffer.add_string buf ",\"ph\":";
  add_json_string buf e.ph;
  Buffer.add_string buf ",\"ts\":";
  add_json_float buf e.ts;
  (match e.dur with
  | Some d ->
    Buffer.add_string buf ",\"dur\":";
    add_json_float buf d
  | None -> ());
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d" e.pid);
  (match e.tid with
  | Some tid -> Buffer.add_string buf (Printf.sprintf ",\"tid\":%d" tid)
  | None -> ());
  (match e.ph with
  | "i" -> Buffer.add_string buf ",\"s\":\"t\""
  | _ -> ());
  (match e.args with
  | [] -> ()
  | _ :: _ ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_json_string buf k;
        Buffer.add_char buf ':';
        add_arg buf v)
      e.args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create (256 * (t.len + 2)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  for i = 0 to t.len - 1 do
    if i > 0 then Buffer.add_string buf ",\n";
    add_event buf t.events.(i)
  done;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let write_json t path =
  (* Temp-then-rename, same discipline as {!Registry.write_prometheus}:
     readers never observe a truncated trace. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t));
  Sys.rename tmp path
