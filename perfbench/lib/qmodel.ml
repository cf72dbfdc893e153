(* The event-queue operations a cluster of PS servers performs on a
   recorded job stream, as a list to replay against [Event_queue].

   With arrival events (a batch run), each arrival pops its own event,
   schedules the next arrival and moves its server's next departure
   (cancel + add); each completion pops and schedules the server's
   following departure, if any.  Without them (a driver fed from outside,
   as the daemon is), an arrival only moves its server's next departure. *)

type stream = {
  servers : int;
  arrival : float array;  (** by job, in arrival order *)
  computer : int array;  (** the server each job went to *)
  completion : float array;  (** [nan] when the job never completed *)
  order : int array;  (** jobs in completion order *)
}

(* Arrivals and completions merged into one time-ordered list: [j >= 0]
   is the arrival of job [j], [-j - 1] its completion. *)
let events s =
  let n = Array.length s.arrival and m = Array.length s.order in
  let ev = Array.make (n + m) 0 in
  let i = ref 0 and k = ref 0 in
  for e = 0 to n + m - 1 do
    if !k >= m || (!i < n && s.arrival.(!i) <= s.completion.(s.order.(!k))) then begin
      ev.(e) <- !i;
      incr i
    end
    else begin
      ev.(e) <- - s.order.(!k) - 1;
      incr k
    end
  done;
  ev

module Fs = Set.Make (struct
  type t = float * int

  let compare (a, i) (b, j) = match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

(* One operation per index: [kind] is 'a' (add an arrival event), 'd'
   (add a departure for [server]), 'c' (cancel [server]'s departure) or
   'p' (pop); [pops] counts the events executed. *)
type t = { kind : Bytes.t; time : float array; server : int array; pops : int }

let ops ~arrival_events s =
  let present = Array.make s.servers Fs.empty in
  let kind = Buffer.create 1024 in
  let time = Grow.Fbuf.create () and server = Grow.Ibuf.create () in
  let op k t c =
    Buffer.add_char kind k;
    Grow.Fbuf.push time t;
    Grow.Ibuf.push server c
  in
  let pops = ref 0 in
  let pop () =
    incr pops;
    op 'p' 0.0 0
  in
  let next_departure c =
    match Fs.min_elt_opt present.(c) with Some (t, _) -> op 'd' t c | None -> ()
  in
  let n = Array.length s.arrival in
  if arrival_events && n > 0 then op 'a' s.arrival.(0) 0;
  Array.iter
    (fun e ->
      if e >= 0 then begin
        if arrival_events then begin
          pop ();
          if e + 1 < n then op 'a' s.arrival.(e + 1) 0
        end;
        let c = s.computer.(e) in
        if not (Fs.is_empty present.(c)) then op 'c' 0.0 c;
        if Float.is_finite s.completion.(e) then
          present.(c) <- Fs.add (s.completion.(e), e) present.(c);
        next_departure c
      end
      else begin
        pop ();
        let j = -e - 1 in
        let c = s.computer.(j) in
        present.(c) <- Fs.remove (s.completion.(j), j) present.(c);
        next_departure c
      end)
    (events s);
  {
    kind = Buffer.to_bytes kind;
    time = Grow.Fbuf.contents time;
    server = Grow.Ibuf.contents server;
    pops = !pops;
  }
