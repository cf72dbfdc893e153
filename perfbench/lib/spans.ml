(* In-memory span recorder.  A span is one call into a layer, timed from
   the benchmark's side: name, start, end, parent span and run id.  Spans
   stay in memory until [write]; a disabled recorder records nothing, so
   untraced runs carry no span cost beyond one branch per call. *)

type t = {
  enabled : bool;
  run : string;
  mutable names : string array;
  mutable starts : float array;
  mutable ends : float array;
  mutable parents : int array;
  mutable len : int;
}

let no_parent = -1

let create ~enabled ~run =
  let cap = if enabled then 1024 else 0 in
  {
    enabled;
    run;
    names = Array.make cap "";
    starts = Array.make cap 0.0;
    ends = Array.make cap 0.0;
    parents = Array.make cap no_parent;
    len = 0;
  }

let count t = t.len

let grow t =
  let cap = max 1024 (2 * Array.length t.names) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.0;
  t.ends <- extend t.ends 0.0;
  t.parents <- extend t.parents no_parent

(* Record a finished span; returns its id ([no_parent] when disabled). *)
let add t ?(parent = no_parent) name ~start ~stop =
  if not t.enabled then no_parent
  else begin
    if t.len = Array.length t.names then grow t;
    let id = t.len in
    t.names.(id) <- name;
    t.starts.(id) <- start;
    t.ends.(id) <- stop;
    t.parents.(id) <- parent;
    t.len <- id + 1;
    id
  end

(* Open a span now and close it with [finish]; lets children name it as
   their parent before it ends. *)
let open_ t ?parent name ~now = add t ?parent name ~start:now ~stop:Float.nan

let finish t id ~now = if id >= 0 then t.ends.(id) <- now

(* Tab-separated, one span per line: id, parent, run, name, start, end. *)
let write t path =
  let oc = open_out path in
  Printf.fprintf oc "id\tparent\trun\tname\tstart\tend\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%s\t%.9f\t%.9f\n" i t.parents.(i) t.run
      t.names.(i) t.starts.(i) t.ends.(i)
  done;
  close_out oc
