(* The benchmark's result: named metrics with units and sample counts,
   printed as a human-readable table on stderr and as the one-line JSON
   object that ends standard output. *)

type metric = { name : string; value : float; unit_ : string; n : int; note : string }

type t = {
  mutable metrics : metric list;  (** reverse order of [add] *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let create () = { metrics = []; attempted = 0; failed = 0; failures = [] }

let add t ?(n = 1) ?(note = "") name unit_ value =
  t.metrics <- { name; value; unit_; n; note } :: t.metrics

(* One output check: counts as attempted, and as failed with a reason
   unless [ok]. *)
let check t ok reason =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- reason :: t.failures
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no NaN or infinity; a metric that could not be measured is a
   bug the checks should already have reported, so it prints as null. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let to_json t =
  let ms = List.rev t.metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_number m.value) (json_string m.unit_))
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (t.failed = 0) (max 1 t.attempted) t.failed (String.concat ", " fields)

let print_table oc t =
  List.iter
    (fun m ->
      Printf.fprintf oc "  %-36s %14.6g %-6s n=%-8d %s\n" m.name m.value m.unit_ m.n m.note)
    (List.rev t.metrics);
  Printf.fprintf oc "  checks: %d attempted, %d failed\n" t.attempted t.failed;
  List.iteri
    (fun i r -> if i < 20 then Printf.fprintf oc "  FAILED: %s\n" r)
    (List.rev t.failures)
