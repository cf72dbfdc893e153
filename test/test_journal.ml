open Test_util
module Obs = Statsched_obs
module Journal = Obs.Journal
module Http = Obs.Http
module Core = Statsched_core
module Cluster = Statsched_cluster
module Workload = Cluster.Workload
module Simulation = Cluster.Simulation
module Scheduler = Cluster.Scheduler
module Fault = Cluster.Fault
module Telemetry = Cluster.Telemetry
module Job = Statsched_queueing.Job
module Journal_file = Tracestat_core.Journal_file
module Crossval = Tracestat_core.Crossval
module Band = Statsched_simcheck.Band

(* ------------------------------------------------------------------ *)
(* Bounded journal: sampling and compaction invariants                  *)

(* Besides a small one-block journal, the compaction tests run at
   several whole blocks and at a last block shorter than the others. *)
let block = 4096
let multi_block = [ 3 * block; (3 * block) + 5 ]

let bounded_sampling_at capacity =
  let j = Journal.create ~capacity () in
  Alcotest.(check int) "initial stride" 1 (Journal.stride j);
  let n = max 1000 (10 * capacity) in
  for i = 0 to n - 1 do
    Journal.record_dispatch j ~id:i ~computer:(i mod 3) ~time:(float_of_int i)
      ~size:(float_of_int (i + 1))
  done;
  Alcotest.(check bool) "length bounded by capacity" true
    (Journal.length j <= Journal.capacity j);
  Alcotest.(check int) "every offer counted" n (Journal.seen j Journal.Dispatch);
  let stride = Journal.stride j in
  Alcotest.(check bool) "stride grew under pressure" true (stride > 1);
  Alcotest.(check bool) "stride stays a power of two" true
    (stride land (stride - 1) = 0);
  (* Systematic sampling: after any number of compactions the retained
     dispatches are exactly the ordinals 0, stride, 2*stride, ... in
     recording order — a uniform sample, not an arbitrary subset. *)
  let ids = ref [] in
  Journal.iter j (function
    | Journal.Dispatch_r { id; time; size; _ } ->
      (* Compaction moves whole slots: the fields stay together. *)
      check_float ~eps:0.0 "time travels with its record" (float_of_int id) time;
      check_float ~eps:0.0 "size travels with its record" (float_of_int (id + 1)) size;
      ids := id :: !ids
    | _ -> Alcotest.fail "journal holds only dispatch records");
  let ids = List.rev !ids in
  Alcotest.(check bool) "some records survive" true (ids <> []);
  List.iteri
    (fun k id ->
      Alcotest.(check int) (Printf.sprintf "record %d is ordinal %d" k (k * stride))
        (k * stride) id)
    ids;
  Alcotest.(check int) "kept agrees with length"
    (Journal.length j)
    (Journal.kept j Journal.Dispatch)

let journal_bounded_sampling () = List.iter bounded_sampling_at (16 :: multi_block)

let per_stream_sampling_at capacity =
  (* Mixed streams compact together but sample per stream: each kind
     keeps its own 0, stride, 2*stride... ordinals. *)
  let j = Journal.create ~capacity () in
  let n = max 500 (2 * capacity) in
  for i = 0 to n - 1 do
    Journal.record_dispatch j ~id:i ~computer:0 ~time:(float_of_int i) ~size:1.0;
    Journal.record_completion j ~id:i ~computer:0 ~arrival:(float_of_int i)
      ~start:(float_of_int i)
      ~completion:(float_of_int (i + 1))
      ~size:1.0
  done;
  let stride = Journal.stride j in
  let check_ordinals name extract =
    let got = ref [] in
    Journal.iter j (fun r ->
        match extract r with Some id -> got := id :: !got | None -> ());
    List.iteri
      (fun k id ->
        Alcotest.(check int)
          (Printf.sprintf "%s record %d is ordinal %d" name k (k * stride))
          (k * stride) id)
      (List.rev !got)
  in
  check_ordinals "dispatch" (function
    | Journal.Dispatch_r { id; _ } -> Some id
    | _ -> None);
  check_ordinals "completion" (function
    | Journal.Completion_r { id; _ } -> Some id
    | _ -> None);
  Alcotest.(check bool) "streams were compacted" true (stride > 1);
  Alcotest.(check int) "dispatch stream population" n
    (Journal.seen j Journal.Dispatch);
  Alcotest.(check int) "completion stream population" n
    (Journal.seen j Journal.Completion)

let journal_per_stream_sampling () =
  List.iter per_stream_sampling_at (32 :: multi_block)

(* A block is 4096 slots of six doubles: the first record of a
   two-block journal adds exactly that block (plus its header word) to
   what the journal holds; the other block is not allocated yet. *)
let journal_block_footprint () =
  let j = Journal.create ~capacity:(2 * block) () in
  let words () = Obj.reachable_words (Obj.repr j) in
  let empty = words () in
  Journal.record_dispatch j ~id:0 ~computer:0 ~time:0.0 ~size:1.0;
  Alcotest.(check int) "one block: 4096 records x 6 doubles" ((block * 6) + 1)
    (words () - empty)

(* Every kind's fields survive compaction, the computer and the kind
   included (they share one double), large and negative computers too. *)
let compaction_keeps_fields_at capacity =
  let j = Journal.create ~capacity () in
  let n = 3 * capacity in
  let computer i = if i mod 11 = 0 then -1 else i * 7919 mod 100_003 in
  let t i = float_of_int i +. 0.25 in
  for i = 0 to n - 1 do
    Journal.record_dispatch j ~id:i ~computer:(computer i) ~time:(t i) ~size:(t (i + 1));
    Journal.record_queue j ~depth:i ~computer:(computer i) ~time:(t i);
    Journal.record_completion j ~id:i ~computer:(computer i) ~arrival:(t i)
      ~start:(t (i + 1)) ~completion:(t (i + 2)) ~size:(t (i + 3));
    Journal.record_drop j ~id:i ~computer:(computer i) ~time:(t i);
    Journal.record_rate j ~computer:(computer i) ~time:(t i) ~rate:(t (i + 4))
  done;
  Alcotest.(check bool) "compacted" true (Journal.stride j > 1);
  let seen = Array.make 5 0 in
  let check name k i c fields =
    seen.(k) <- seen.(k) + 1;
    Alcotest.(check int) (name ^ " computer") (computer i) c;
    List.iteri
      (fun f (got, off) ->
        check_float ~eps:0.0 (Printf.sprintf "%s field %d" name f) (t (i + off)) got)
      fields
  in
  Journal.iter j (function
    | Journal.Dispatch_r { id; computer = c; time; size } ->
      check "dispatch" 0 id c [ (time, 0); (size, 1) ]
    | Journal.Queue_r { depth; computer = c; time } -> check "queue" 1 depth c [ (time, 0) ]
    | Journal.Completion_r { id; computer = c; arrival; start; completion; size } ->
      check "completion" 2 id c [ (arrival, 0); (start, 1); (completion, 2); (size, 3) ]
    | Journal.Drop_r { id; computer = c; time } -> check "drop" 3 id c [ (time, 0) ]
    | Journal.Rate_r { computer = c; time; rate } ->
      let i = int_of_float time in
      check "rate" 4 i c [ (time, 0); (rate, 4) ]);
  Array.iteri
    (fun k count ->
      Alcotest.(check bool) (Printf.sprintf "kind %d kept" k) true (count > 0))
    seen

let journal_compaction_keeps_fields () =
  List.iter compaction_keeps_fields_at (40 :: multi_block)

let journal_validation () =
  Alcotest.(check bool) "capacity < 16 rejected" true
    (match Journal.create ~capacity:8 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "sample_every < 1 rejected" true
    (match Journal.create ~sample_every:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let j = Journal.create ~capacity:16 () in
  Alcotest.(check bool) "malformed meta key rejected" true
    (match Journal.to_string ~meta:[ ("bad key", "v") ] j with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Checksum and on-disk format                                          *)

let journal_checksum_vectors () =
  (* Standard 64-bit FNV-1a test vectors. *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" input)
        expected
        (Printf.sprintf "%016Lx" (Journal.fnv1a64 input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let sample_journal () =
  let j = Journal.create ~capacity:16 () in
  Journal.record_dispatch j ~id:0 ~computer:2 ~time:0.1 ~size:2.5;
  Journal.record_queue j ~depth:3 ~computer:2 ~time:0.1;
  Journal.record_completion j ~id:0 ~computer:2 ~arrival:0.1
    ~start:(1.0 /. 3.0) ~completion:1.0e-17 ~size:2.5;
  Journal.record_drop j ~id:1 ~computer:0 ~time:7.25;
  Journal.record_rate j ~computer:1 ~time:4096.0 ~rate:0.0;
  j

let journal_roundtrip () =
  let j = sample_journal () in
  let meta = [ ("scheduler", "orr"); ("seed", "7") ] in
  let summary = [ ("mean_response_time", "1.5") ] in
  let text = Journal.to_string ~meta ~summary j in
  match Journal_file.parse text with
  | Error _ -> Alcotest.fail "roundtrip parse failed"
  | Ok jf ->
    Alcotest.(check (list (pair string string))) "meta" meta jf.Journal_file.meta;
    Alcotest.(check (list (pair string string)))
      "summary" summary jf.Journal_file.summary;
    Alcotest.(check int) "stride" 1 jf.Journal_file.stride;
    Alcotest.(check int) "seen dispatch" 1 (Journal_file.seen_of jf "dispatch");
    Alcotest.(check int) "seen rate" 1 (Journal_file.seen_of jf "rate");
    Alcotest.(check int) "record count" 5 (Array.length jf.Journal_file.records);
    (* Floats survive serialisation bit-exactly (%.12g / %.17g fallback). *)
    let original = ref [] in
    Journal.iter j (fun r -> original := r :: !original);
    List.iteri
      (fun i r ->
        let same =
          match (r, jf.Journal_file.records.(i)) with
          | ( Journal.Completion_r
                { id; computer; arrival; start; completion; size },
              Journal.Completion_r p ) ->
            id = p.id && computer = p.computer
            && Float.equal arrival p.arrival
            && Float.equal start p.start
            && Float.equal completion p.completion
            && Float.equal size p.size
          | Journal.Dispatch_r { id; computer; time; size }, Journal.Dispatch_r p ->
            id = p.id && computer = p.computer && Float.equal time p.time
            && Float.equal size p.size
          | Journal.Queue_r { depth; computer; time }, Journal.Queue_r p ->
            depth = p.depth && computer = p.computer && Float.equal time p.time
          | Journal.Drop_r { id; computer; time }, Journal.Drop_r p ->
            id = p.id && computer = p.computer && Float.equal time p.time
          | Journal.Rate_r { computer; time; rate }, Journal.Rate_r p ->
            computer = p.computer && Float.equal time p.time
            && Float.equal rate p.rate
          | _ -> false
        in
        Alcotest.(check bool) (Printf.sprintf "record %d identical" i) true same)
      (List.rev !original)

let journal_corruption_detected () =
  let j = sample_journal () in
  let text = Journal.to_string j in
  let corrupt s =
    match Journal_file.parse s with
    | Error (Journal_file.Corrupt _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "pristine journal parses" true
    (Result.is_ok (Journal_file.parse text));
  (* Flip one byte in the middle. *)
  let flipped = Bytes.of_string text in
  let mid = String.length text / 2 in
  Bytes.set flipped mid (if Bytes.get flipped mid = 'x' then 'y' else 'x');
  Alcotest.(check bool) "flipped byte caught by checksum" true
    (corrupt (Bytes.to_string flipped));
  (* Truncate: lose the checksum line. *)
  let no_checksum =
    String.sub text 0 (String.rindex_from text (String.length text - 2) '\n' + 1)
  in
  Alcotest.(check bool) "missing checksum caught" true (corrupt no_checksum);
  (* Record-count header disagreeing with the body. *)
  let miscounted =
    let body_lines = String.split_on_char '\n' text in
    let swapped =
      List.map
        (fun l -> if String.equal l "records 5" then "records 4" else l)
        body_lines
    in
    (* Re-checksum so only the count mismatch trips. *)
    let body =
      String.concat "\n"
        (List.filteri (fun i _ -> i < List.length swapped - 2) swapped)
      ^ "\n"
    in
    body ^ Printf.sprintf "checksum fnv1a64 %016Lx\n" (Journal.fnv1a64 body)
  in
  Alcotest.(check bool) "record count mismatch caught" true (corrupt miscounted);
  (* An honest file of another version — v1 predates the dispatch size,
     v3 is from the future — is Unsupported, not Corrupt. *)
  List.iter
    (fun header ->
      let text = header ^ "\n" in
      let text =
        text ^ Printf.sprintf "checksum fnv1a64 %016Lx\n" (Journal.fnv1a64 text)
      in
      Alcotest.(check bool) (header ^ " is Unsupported") true
        (match Journal_file.parse text with
        | Error (Journal_file.Unsupported _) -> true
        | _ -> false))
    [ "statsched-journal v1"; "statsched-journal v3" ]

let journal_write_atomic () =
  let dir = Filename.temp_file "statsched-journal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "run.journal" in
  let j = sample_journal () in
  Journal.write j path;
  Alcotest.(check bool) "journal written" true (Sys.file_exists path);
  Alcotest.(check bool) "no temp file left behind" true
    (not (Sys.file_exists (path ^ ".tmp")));
  let meta = [ ("seed", "7") ] and summary = [ ("jobs", "1") ] in
  Journal.write ~meta ~summary j path;
  Alcotest.(check string) "the file is to_string's text"
    (Journal.to_string ~meta ~summary j)
    (In_channel.with_open_bin path In_channel.input_all);
  let bad = Filename.concat dir "bad.journal" in
  Alcotest.(check bool) "a malformed key is rejected before any file is opened" true
    ((match Journal.write ~summary:[ ("bad key", "v") ] j bad with
     | exception Invalid_argument _ -> true
     | () -> false)
    && not (Sys.file_exists bad || Sys.file_exists (bad ^ ".tmp")));
  (match Journal_file.load path with
  | Ok jf ->
    Alcotest.(check int) "written journal loads" 5
      (Array.length jf.Journal_file.records)
  | Error _ -> Alcotest.fail "written journal must load");
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Hot path stays allocation-light                                      *)

let journal_recording_allocation () =
  (* Recording must not build per-record heap structure: the only
     allocation a call site may pay is the boxing of its float
     arguments (a few words), never an O(record) or O(capacity) cost.
     The measured loop opens the second and third blocks (a block is
     one direct major allocation, not a minor one), fills the short
     last block and compacts. *)
  let j = Journal.create ~capacity:((3 * block) + 5) () in
  let record i =
    let t = float_of_int i in
    Journal.record_completion j ~id:i ~computer:0 ~arrival:t ~start:t
      ~completion:t ~size:1.0
  in
  for i = 0 to 1023 do
    record i
  done;
  Gc.full_major ();
  let n = 4 * block in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    record i
  done;
  let per_record = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool) "the loop compacted" true (Journal.stride j > 1);
  if per_record > 16.0 then
    Alcotest.failf "journal recording allocates %.1f words/record (bound: 16)"
      per_record

let journal_sim_allocation () =
  (* End-to-end acceptance: a simulation with metric + journal
     telemetry attached and one hook record per store slot
     ([hooks_retain_jobs:false]) stays allocation-light: 8 words per
     job, mostly the boxes of the hook record's float fields. *)
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  let cfg =
    Simulation.default_config ~horizon:2.0e4 ~warmup:5.0e3 ~seed:7L ~speeds
      ~workload ~scheduler:(Scheduler.static Core.Policy.orr) ()
  in
  let run () =
    let t =
      Telemetry.create ~journal:(Journal.create ~capacity:16384 ()) cfg
    in
    let r =
      Simulation.run ~sanitize:false ~hooks_retain_jobs:false
        ~metric_histograms:(Telemetry.histograms t)
        ~on_dispatch:(Telemetry.on_dispatch t)
        ~on_completion:(Telemetry.on_completion t)
        ~on_drop:(Telemetry.on_drop t) cfg
    in
    Telemetry.finalize t r;
    r
  in
  ignore (run ());
  Gc.full_major ();
  let before = Gc.minor_words () in
  let result = run () in
  let delta = Gc.minor_words () -. before in
  let jobs = float_of_int result.Simulation.total_arrivals in
  Alcotest.(check bool) "enough jobs to average over" true (jobs > 1_000.0);
  let per_job = delta /. jobs in
  if per_job > 120.0 then
    Alcotest.failf "journaled hot path allocates %.1f words/job (bound: 120)"
      per_job

(* ------------------------------------------------------------------ *)
(* HTTP server                                                          *)

let http_request ~port request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let n = Unix.write_substring fd request 0 (String.length request) in
      Alcotest.(check int) "request fully written" (String.length request) n;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let http_get ~port path =
  http_request ~port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
       path)

let contains s needle =
  let ls = String.length s and ln = String.length needle in
  let rec go i =
    if i + ln > ls then false
    else if String.equal (String.sub s i ln) needle then true
    else go (i + 1)
  in
  go 0

let http_server_basics () =
  let server =
    Http.serve ~port:0 (fun path ->
        match path with
        | "/ping" -> Some (Http.text "pong")
        | "/data" -> Some (Http.json "{\"ok\":true}")
        | "/boom" -> failwith "handler bug"
        | _ -> None)
  in
  let port = Http.port server in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let ok = http_get ~port "/ping" in
  Alcotest.(check bool) "200 on a routed path" true (contains ok "200");
  Alcotest.(check bool) "body served" true (contains ok "pong");
  Alcotest.(check bool) "connection: close advertised" true
    (contains ok "Connection: close");
  let js = http_get ~port "/data" in
  Alcotest.(check bool) "json content type" true
    (contains js "application/json");
  (* Query strings are stripped before routing. *)
  Alcotest.(check bool) "query string ignored" true
    (contains (http_get ~port "/ping?x=1") "pong");
  Alcotest.(check bool) "404 on unknown path" true
    (contains (http_get ~port "/nope") "404");
  Alcotest.(check bool) "405 on non-GET" true
    (contains
       (http_request ~port "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n")
       "405");
  Alcotest.(check bool) "400 on garbage" true
    (contains (http_request ~port "not http\r\n\r\n") "400");
  Alcotest.(check bool) "500 on a raising handler, server survives" true
    (contains (http_get ~port "/boom") "500");
  Alcotest.(check bool) "still serving after the 500" true
    (contains (http_get ~port "/ping") "pong");
  Http.stop server;
  Http.stop server;
  (* idempotent *)
  Alcotest.(check bool) "connections refused after stop" true
    (match http_get ~port "/ping" with
    | exception Unix.Unix_error _ -> true
    | response -> String.equal response "")

(* Regression (PR 10): the header scan must resume where the previous
   chunk's scan stopped (minus 3 bytes for a terminator straddling the
   boundary) instead of rescanning the whole buffer from offset 0 per
   chunk — the old behaviour was O(n^2) on fragmented headers. *)
let http_incremental_header_scan () =
  let find s ~from =
    Http.Testing.find_headers_end (Bytes.of_string s) ~len:(String.length s)
      ~from
  in
  Alcotest.(check int) "terminator at start" 0 (find "\r\n\r\nbody" ~from:0);
  Alcotest.(check int) "terminator mid-buffer" 5
    (find "GET /\r\n\r\nrest" ~from:0);
  Alcotest.(check int) "absent" (-1) (find "GET / HTTP/1.1\r\n" ~from:0);
  Alcotest.(check int) "negative from clamps to 0" 0
    (find "\r\n\r\n" ~from:(-7));
  (* The straddle case: the terminator's first 3 bytes arrive in chunk 1
     and its final byte in chunk 2.  Resuming at [prev_len - 3] finds
     it; resuming at [prev_len] (the naive "only scan new bytes") would
     not. *)
  let s = "GET / HTTP/1.1\r\n\r\n" in
  let prev_len = String.length s - 1 in
  Alcotest.(check int) "straddled terminator found from prev_len-3" 14
    (find s ~from:(prev_len - 3));
  Alcotest.(check int) "naive prev_len resume would miss it" (-1)
    (find s ~from:prev_len);
  (* End-to-end: a request with a multi-KiB header fed one byte at a
     time still parses (each byte is a separate chunk, so the resume
     path runs thousands of times). *)
  let seen = ref None in
  let server =
    Http.serve_requests ~port:0 (fun req ->
        seen := Some (req.Http.meth, req.Http.path, req.Http.body);
        Http.text "ok")
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let request =
        "POST /jobs HTTP/1.1\r\nHost: x\r\nX-Pad: "
        ^ String.make 4096 'p'
        ^ "\r\nContent-Length: 4\r\n\r\n2.25"
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          String.iter
            (fun c ->
              ignore (Unix.write_substring fd (String.make 1 c) 0 1))
            request;
          let buf = Bytes.create 4096 in
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          let response = Bytes.sub_string buf 0 n in
          Alcotest.(check bool) "byte-at-a-time request answered 200" true
            (contains response "200"));
      match !seen with
      | Some (meth, path, body) ->
        Alcotest.(check string) "method" "POST" meth;
        Alcotest.(check string) "path" "/jobs" path;
        Alcotest.(check string) "body" "2.25" body
      | None -> Alcotest.fail "handler never invoked")

(* Regression (PR 10): a client that connects and then goes silent used
   to park the sequential accept loop forever (slow-loris head-of-line
   blocking).  Now every connection read is bounded by a deadline: the
   staller gets a 408 and the next caller is served. *)
let http_read_timeout () =
  let server =
    Http.serve ~port:0 ~read_timeout:0.3 (fun path ->
        if String.equal path "/ping" then Some (Http.text "pong") else None)
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let stalled = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close stalled with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect stalled
            (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* A partial request line, then silence. *)
          ignore (Unix.write_substring stalled "GET /pi" 0 7);
          let buf = Bytes.create 1024 in
          let n = Unix.read stalled buf 0 (Bytes.length buf) in
          let response = Bytes.sub_string buf 0 n in
          Alcotest.(check bool) "stalled connection answered 408" true
            (contains response "408"));
      (* The staller did not wedge the loop: a well-formed request right
         behind it is served normally. *)
      Alcotest.(check bool) "server alive after the staller" true
        (contains (http_get ~port "/ping") "pong"))

(* Client-side helpers for the concurrency tests: every blocking read
   carries a receive timeout, so a server that never answers fails the
   test instead of hanging it. *)
let connect ?(recv_timeout = 10.0) port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "request fully written" (String.length s) n

(* Everything the server sends until it closes; [Error] if the receive
   timeout fires first. *)
let read_to_eof fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Ok (Buffer.contents buf)
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      Ok (Buffer.contents buf)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error (Buffer.contents buf)
  in
  drain ()

let get_with_timeout ~port path =
  let fd = connect ~recv_timeout:5.0 port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" path);
      match read_to_eof fd with
      | Ok response -> response
      | Error _ -> Alcotest.failf "GET %s: no answer within 5 s" path)

(* Larger than loopback socket buffers, so writing it takes the client's
   cooperation. *)
let big_body = lazy (String.make (32 lsl 20) 'b')

let big_handler path =
  match path with
  | "/ping" -> Some (Http.text "pong")
  | "/big" -> Some (Http.text (Lazy.force big_body))
  | _ -> None

(* One select loop serves every connection: eight silent clients
   holding connections open do not delay a ninth, and each of them
   still gets its 408 at its own deadline. *)
let http_silent_clients () =
  let read_timeout = 2.0 in
  let server = Http.serve ~port:0 ~read_timeout big_handler in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let opened = Obs.Clock.now () in
      let silent =
        List.init 8 (fun _ ->
            let fd = connect port in
            send_all fd "GET /pi";
            fd)
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            silent)
        (fun () ->
          let pong = get_with_timeout ~port "/ping" in
          let answered = Obs.Clock.elapsed ~since:opened in
          Alcotest.(check bool) "/ping answered" true (contains pong "pong");
          if answered >= read_timeout then
            Alcotest.failf
              "/ping answered %.2f s after the silent clients connected, \
               not before their %.1f s deadline"
              answered read_timeout;
          List.iteri
            (fun i fd ->
              match read_to_eof fd with
              | Ok response ->
                Alcotest.(check bool)
                  (Printf.sprintf "silent client %d answered 408" i)
                  true (contains response "408")
              | Error _ -> Alcotest.failf "silent client %d never closed" i)
            silent))

(* A client that requests a large body and never reads it holds a
   connection, not the server: others are answered meanwhile, and the
   stuck response is dropped once [read_timeout] passes. *)
let http_stuck_reader () =
  let read_timeout = 1.0 in
  let server = Http.serve ~port:0 ~read_timeout big_handler in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let stuck = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close stuck with Unix.Unix_error _ -> ())
        (fun () ->
          send_all stuck "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
          let sent = Obs.Clock.now () in
          Thread.delay 0.3;
          let asked = Obs.Clock.now () in
          let pong = get_with_timeout ~port "/ping" in
          let waited = Obs.Clock.elapsed ~since:asked in
          Alcotest.(check bool) "/ping answered" true (contains pong "pong");
          if waited >= 0.5 then
            Alcotest.failf "/ping waited %.2f s behind the stuck reader" waited;
          Thread.delay
            (Float.max 0.0 (read_timeout +. 0.5 -. Obs.Clock.elapsed ~since:sent));
          match read_to_eof stuck with
          | Ok partial ->
            Alcotest.(check bool) "stuck response cut short" true
              (String.length partial < String.length (Lazy.force big_body))
          | Error _ -> Alcotest.fail "stuck connection never closed"))

(* Regression: a client that hangs up before reading its response made
   the server's write raise SIGPIPE, whose default action kills the
   whole process.  Starting a server now ignores SIGPIPE. *)
let http_client_hangs_up () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let server = Http.serve ~port:0 big_handler in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      for _ = 1 to 3 do
        let fd = connect port in
        send_all fd "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
        Unix.close fd
      done;
      Thread.delay 0.3;
      Alcotest.(check bool) "still serving after the hang-ups" true
        (contains (get_with_timeout ~port "/ping") "pong"))

(* [stop] drops connections still sending their request at once,
   rather than waiting out their read deadline. *)
let http_stop_drops_silent () =
  let read_timeout = 3.0 in
  let server = Http.serve ~port:0 ~read_timeout big_handler in
  let silent = connect (Http.port server) in
  Fun.protect
    ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
    (fun () ->
      Thread.delay 0.1;
      let t0 = Obs.Clock.now () in
      Http.stop server;
      let took = Obs.Clock.elapsed ~since:t0 in
      if took >= 1.0 then
        Alcotest.failf "stop took %.2f s with one silent client open" took;
      Alcotest.(check bool) "silent client disconnected" true
        (match read_to_eof silent with Ok "" -> true | Ok _ | Error _ -> false))

(* ... but a response already being written still finishes: a client
   that posts /drain and then reads its answer must get all of it. *)
let http_stop_finishes_writes () =
  let read_timeout = 3.0 in
  let server = Http.serve ~port:0 ~read_timeout big_handler in
  let port = Http.port server in
  let silent = connect port in
  let reader = connect port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ silent; reader ])
    (fun () ->
      send_all reader "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
      Thread.delay 0.3;
      let t0 = Obs.Clock.now () in
      let stopper = Thread.create Http.stop server in
      Thread.delay 0.2;
      let response = read_to_eof reader in
      Thread.join stopper;
      let took = Obs.Clock.elapsed ~since:t0 in
      (match response with
      | Ok r ->
        Alcotest.(check bool) "in-flight response written in full" true
          (String.length r > String.length (Lazy.force big_body)
          && contains (String.sub r 0 200) "200 OK")
      | Error _ -> Alcotest.fail "in-flight response never finished");
      if took >= read_timeout then
        Alcotest.failf "stop took %.2f s, past the read deadline" took)

(* Property: the incremental parser gives the same answer however the
   request is split across reads, including the 413 for a header block
   over the 16 KiB cap. *)
let http_parser_chunking =
  let gen =
    QCheck2.Gen.(
      let word n = string_size ~gen:(char_range 'a' 'z') (int_range 0 n) in
      let* meth = oneofl [ "GET"; "POST"; "PUT"; "DELETE" ] in
      let* path = map (fun w -> "/" ^ w) (word 12) in
      let* query = opt (word 8) in
      let* pad =
        oneof [ word 64; string_size ~gen:(return 'p') (int_range 16300 16450) ]
      in
      let* header = oneofl [ "Content-Length"; "content-length"; "CONTENT-LENGTH" ] in
      let* body = string_size ~gen:printable (int_range 0 300) in
      let raw =
        Printf.sprintf "%s %s%s HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n%s: %d\r\n\r\n%s"
          meth path
          (match query with Some q -> "?" ^ q | None -> "")
          pad header (String.length body) body
      in
      let* cuts = list_size (int_range 0 16) (int_range 0 (String.length raw)) in
      let head_len = String.length raw - String.length body - 4 in
      let expected =
        if head_len > 16384 then Error (Http.text ~status:413 "headers too large\n")
        else Ok { Http.meth; path; body }
      in
      return (raw, List.sort_uniq compare cuts, expected))
  in
  qcheck ~count:300 "http: parser agrees on every split of a request" gen
    (fun (raw, cuts, expected) ->
      let whole = Http.Testing.(feed (parser ()) raw) in
      let p = Http.Testing.parser () in
      let rec go from = function
        | [] -> Http.Testing.feed p (String.sub raw from (String.length raw - from))
        | cut :: rest -> (
          match Http.Testing.feed p (String.sub raw from (cut - from)) with
          | None -> go cut rest
          | Some _ as answer -> answer)
      in
      let chunked = go 0 cuts in
      chunked = whole && whole = Some expected)

(* Method+body dispatch and the request-reader error paths. *)
let http_method_body_dispatch () =
  let server =
    Http.serve_requests ~port:0 ~read_timeout:0.5 (fun req ->
        Http.text
          (Printf.sprintf "%s %s [%s]" req.Http.meth req.Http.path
             req.Http.body))
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let put =
        http_request ~port
          "PUT /policy HTTP/1.1\r\nHost: x\r\ncontent-length: 9\r\n\r\nleast-load"
      in
      (* Note: Content-Length 9 truncates the 10-byte payload on purpose;
         the reader must honour the declared length, not the bytes sent. *)
      Alcotest.(check bool) "PUT with lowercase content-length" true
        (contains put "PUT /policy [least-loa]");
      let no_body = http_request ~port "DELETE /x HTTP/1.1\r\nHost: x\r\n\r\n" in
      Alcotest.(check bool) "no Content-Length means empty body" true
        (contains no_body "DELETE /x []");
      let bad_len =
        http_request ~port
          "POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
      in
      Alcotest.(check bool) "unparseable content-length is a 400" true
        (contains bad_len "400");
      let huge =
        http_request ~port
          "POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
      in
      Alcotest.(check bool) "oversized declared body is a 413" true
        (contains huge "413");
      (* Client half-closes after "short": EOF before the declared
         length is a hard 400 (no point waiting out the deadline). *)
      let request =
        "POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          ignore (Unix.write_substring fd request 0 (String.length request));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let buf = Bytes.create 1024 in
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          Alcotest.(check bool) "truncated body is a 400" true
            (contains (Bytes.sub_string buf 0 n) "400")))

(* The exact bytes a client reads from connect to EOF, one response per
   status the server or the daemon sends.  A reset or a receive timeout
   before EOF fails the test: the response must end in a FIN, right
   after its last byte. *)
let wire_exchange ?(pause = 0.0) ~port request =
  let fd = connect ~recv_timeout:5.0 port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if String.length request > 0 then send_all fd request;
      Thread.delay pause;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        | exception Unix.Unix_error (e, _, _) ->
          Alcotest.failf "%S: %s after %d bytes, before EOF"
            request (Unix.error_message e) (Buffer.length buf)
      in
      drain ())

let wire_reply ~status ~reason ~content_type body =
  "HTTP/1.1 " ^ status ^ " " ^ reason ^ "\r\nContent-Type: " ^ content_type
  ^ "\r\nContent-Length: " ^ string_of_int (String.length body)
  ^ "\r\nConnection: close\r\n\r\n" ^ body

let http_wire_bytes () =
  let daemon =
    let speeds = [| 1.0 |] in
    Cluster.Daemon.create ~clock:(fun () -> 1.0 /. 3.0) ~backlog_limit:1
      (Simulation.default_config ~horizon:1.0e9 ~warmup:0.0 ~seed:5L ~speeds
         ~workload:(Workload.paper_default ~rho:0.5 ~speeds)
         ~scheduler:(Scheduler.static Core.Policy.orr) ())
  in
  let server =
    Http.serve_requests ~port:0 ~read_timeout:0.3 (fun req ->
        match req.Http.path with
        | "/boom" -> failwith "handler bug"
        | "/big" -> Http.text (Lazy.force big_body)
        | _ -> Cluster.Daemon.handle_request daemon req)
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let text = "text/plain; charset=utf-8" in
      let pins =
        [
          ( "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            wire_reply ~status:"200" ~reason:"OK" ~content_type:text "ok\n" );
          ( "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\nxy",
            wire_reply ~status:"400" ~reason:"Bad Request" ~content_type:text
              "body must be one positive number: the job's service demand \
               in seconds on a speed-1 computer\n" );
          ( "POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n1e6",
            wire_reply ~status:"202" ~reason:"Accepted"
              ~content_type:"application/json"
              "{\"id\":1,\"computer\":0,\"time\":0.33333333333333331}" );
          ( "not http\r\n\r\n",
            wire_reply ~status:"400" ~reason:"Bad Request" ~content_type:text
              "bad request\n" );
          ( "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
            wire_reply ~status:"404" ~reason:"Not Found" ~content_type:text
              "not found\n" );
          ( "DELETE /jobs HTTP/1.1\r\nHost: x\r\n\r\n",
            wire_reply ~status:"405" ~reason:"Method Not Allowed"
              ~content_type:text "method not allowed\n" );
          ( "GET /pi",
            wire_reply ~status:"408" ~reason:"Request Timeout"
              ~content_type:text "request timeout\n" );
          ( "POST /jobs HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
            wire_reply ~status:"413" ~reason:"Payload Too Large"
              ~content_type:text "body too large\n" );
          ( "POST /jobs HTTP/1.1\r\nContent-Length: 1\r\n\r\n5",
            wire_reply ~status:"429" ~reason:"Too Many Requests"
              ~content_type:text "backlog full (1 jobs in system, limit 1)\n" );
          ( "GET /boom HTTP/1.1\r\nHost: x\r\n\r\n",
            wire_reply ~status:"500" ~reason:"Internal Server Error"
              ~content_type:text "internal error\n" );
        ]
      in
      List.iter
        (fun (request, expected) ->
          Alcotest.(check string) request expected (wire_exchange ~port request))
        pins;
      (* A body larger than any loopback send buffer, with the client not
         reading at first: the server gets partial writes and finishes
         from select, and EOF still follows the last byte. *)
      let big = Lazy.force big_body in
      let got =
        wire_exchange ~pause:0.2 ~port "GET /big HTTP/1.1\r\nHost: x\r\n\r\n"
      in
      let expected = wire_reply ~status:"200" ~reason:"OK" ~content_type:text big in
      Alcotest.(check int) "big response length" (String.length expected)
        (String.length got);
      Alcotest.(check bool) "big response bytes" true (String.equal expected got))

(* A client that reads a large body steadily, in bursts with short
   pauses, needs longer than [read_timeout] in all but never leaves the
   connection idle that long: it must get every byte.  The write
   deadline is an idle deadline; [http_stuck_reader] pins that a client
   which never reads is still dropped.  A fixed receive buffer turns off
   the kernel's autotuning, so the body cannot land in socket buffers
   before the deadline. *)
let http_slow_steady_reader () =
  let read_timeout = 0.4 in
  let body = String.make (24 lsl 20) 's' in
  let server =
    Http.serve_requests ~port:0 ~read_timeout (fun _ -> Http.text body)
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 20);
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          send_all fd "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n";
          let t0 = Obs.Clock.now () in
          (* 1 MiB, then a 50 ms pause, and again: [Unix.read] returns
             at most 64 KiB a call. *)
          let chunk = Bytes.create 65536 in
          let rec drain got burst =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> got
            | n when burst + n >= 1 lsl 20 ->
              Thread.delay 0.05;
              drain (got + n) 0
            | n -> drain (got + n) (burst + n)
            | exception Unix.Unix_error (e, _, _) ->
              Alcotest.failf "%s after %d bytes, before EOF"
                (Unix.error_message e) got
          in
          let got = drain 0 0 in
          let took = Obs.Clock.elapsed ~since:t0 in
          let expected =
            wire_reply ~status:"200" ~reason:"OK"
              ~content_type:"text/plain; charset=utf-8" body
          in
          Alcotest.(check int) "every byte of the slowly read body"
            (String.length expected) got;
          if took <= read_timeout then
            Alcotest.failf "the read took %.2f s, within one deadline" took))

(* ------------------------------------------------------------------ *)
(* Live serving: mid-run answers, and no perturbation                   *)

let make_cfg ?faults ?(scheduler = Scheduler.static Core.Policy.orr) () =
  let speeds = Core.Speeds.table3 in
  let workload = Workload.paper_default ~rho:0.7 ~speeds in
  Simulation.default_config ?faults ~horizon:40_000.0 ~warmup:10_000.0 ~speeds
    ~workload ~scheduler ()

let serve_answers_mid_run () =
  let cfg = make_cfg () in
  let t = Telemetry.create ~journal:(Journal.create ()) cfg in
  let server = Telemetry.serve t ~port:0 in
  let port = Http.port server in
  let probes = ref 0 in
  let result =
    Simulation.run ~hooks_retain_jobs:false
      ~on_engine:(Telemetry.set_engine t)
      ~metric_histograms:(Telemetry.histograms t)
      ~on_dispatch:(Telemetry.on_dispatch t)
      ~on_completion:(Telemetry.on_completion t)
      ~on_drop:(Telemetry.on_drop t)
      ~on_progress:
        ( 10_000.0,
          fun (_ : Simulation.progress) ->
            (* The probe runs inside the simulation loop: the server
               thread answers while the run is provably mid-flight. *)
            incr probes;
            Alcotest.(check bool) "/healthz mid-run" true
              (contains (http_get ~port "/healthz") "ok");
            let state = http_get ~port "/state" in
            Alcotest.(check bool) "/state reports sim_time" true
              (contains state "\"sim_time\"");
            Alcotest.(check bool) "/state reports live engine counters" true
              (contains state "\"events_executed\"");
            Alcotest.(check bool) "/state reports journal occupancy" true
              (contains state "\"journal\"");
            let metrics = http_get ~port "/metrics" in
            Alcotest.(check bool) "/metrics is prometheus text" true
              (contains metrics "# TYPE statsched_jobs_dispatched_total counter") )
      cfg
  in
  Telemetry.finalize t result;
  Http.stop server;
  Alcotest.(check int) "probed mid-run" 4 !probes;
  Alcotest.(check bool) "run completed jobs" true
    (result.Simulation.total_arrivals > 1000)

(* Acceptance criterion: journaling + live serving leave the run
   bit-identical to a bare one under the same seed. *)
let serve_journal_bit_identity () =
  List.iter
    (fun (name, faults, scheduler) ->
      let order = ref [] in
      let record job = order := job.Job.id :: !order in
      let cfg = make_cfg ?faults ~scheduler () in
      let plain = Simulation.run ~on_completion:record cfg in
      let plain_order = List.rev !order in
      order := [];
      let t = Telemetry.create ~journal:(Journal.create ()) cfg in
      let server = Telemetry.serve t ~port:0 in
      let served =
        Simulation.run ~hooks_retain_jobs:false
          ~on_engine:(Telemetry.set_engine t)
          ~metric_histograms:(Telemetry.histograms t)
          ~on_dispatch:(Telemetry.on_dispatch t)
          ~on_completion:(fun job ->
            Telemetry.on_completion t job;
            record job)
          ~on_drop:(Telemetry.on_drop t)
          ~on_rate_change:(Telemetry.on_rate_change t)
          cfg
      in
      Telemetry.finalize t served;
      Http.stop server;
      check_float ~eps:0.0
        (name ^ ": mean response time bit-identical")
        plain.Simulation.metrics.Core.Metrics.mean_response_time
        served.Simulation.metrics.Core.Metrics.mean_response_time;
      check_float ~eps:0.0
        (name ^ ": mean response ratio bit-identical")
        plain.Simulation.metrics.Core.Metrics.mean_response_ratio
        served.Simulation.metrics.Core.Metrics.mean_response_ratio;
      Alcotest.(check int)
        (name ^ ": same events executed")
        plain.Simulation.events_executed served.Simulation.events_executed;
      Alcotest.(check int)
        (name ^ ": same arrivals")
        plain.Simulation.total_arrivals served.Simulation.total_arrivals;
      check_array ~eps:0.0
        (name ^ ": dispatch fractions bit-identical")
        plain.Simulation.dispatch_fractions served.Simulation.dispatch_fractions;
      Alcotest.(check (list int))
        (name ^ ": completion order identical")
        plain_order (List.rev !order))
    [
      ("ORR", None, Scheduler.static Core.Policy.orr);
      ( "LeastLoad+faults",
        Some (Fault.exponential ~on_failure:Fault.Drop ~mtbf:2000.0 ~mttr:50.0 ()),
        Scheduler.least_load_paper );
    ]

(* ------------------------------------------------------------------ *)
(* Cross-validation: journal vs collector, in process                   *)

let crossval_roundtrip () =
  let cfg = make_cfg ~scheduler:(Scheduler.static Core.Policy.orr) () in
  let t = Telemetry.create ~journal:(Journal.create ~capacity:262144 ()) cfg in
  let result =
    Simulation.run ~hooks_retain_jobs:false
      ~metric_histograms:(Telemetry.histograms t)
      ~on_dispatch:(Telemetry.on_dispatch t)
      ~on_completion:(Telemetry.on_completion t)
      ~on_drop:(Telemetry.on_drop t)
      ~on_rate_change:(Telemetry.on_rate_change t)
      cfg
  in
  Telemetry.finalize t result;
  let dir = Filename.temp_file "statsched-crossval" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "run.journal" in
  Telemetry.write_journal t result path;
  (match Journal_file.load path with
  | Error _ -> Alcotest.fail "journal must load"
  | Ok jf -> (
    match Crossval.validate jf with
    | Error reason -> Alcotest.failf "cross-validation unavailable: %s" reason
    | Ok report ->
      Alcotest.(check bool) "all bands pass" true report.Crossval.ok;
      Alcotest.(check bool) "covers response time, fractions, utilization" true
        (List.length report.Crossval.bands >= 4);
      List.iter
        (fun (b : Band.t) ->
          Alcotest.(check bool) (b.Band.name ^ " band passes") true b.Band.ok)
        report.Crossval.bands));
  (* Sanity: a corrupted copy of the same journal is flagged. *)
  let content = In_channel.with_open_bin path In_channel.input_all in
  let bad = Bytes.of_string content in
  let mid = Bytes.length bad / 2 in
  Bytes.set bad mid (if Bytes.get bad mid = '1' then '2' else '1');
  Alcotest.(check bool) "corrupted journal flagged" true
    (match Journal_file.parse (Bytes.to_string bad) with
    | Error (Journal_file.Corrupt _) -> true
    | _ -> false);
  Sys.remove path;
  Unix.rmdir dir

(* A request without header lines ends its request line with the
   terminator itself: it parses, and the daemon routes it. *)
let http_headerless_request () =
  List.iter
    (fun (raw, meth, path) ->
      Alcotest.(check bool) (String.escaped raw) true
        (Http.Testing.(feed (parser ()) raw)
        = Some (Ok { Http.meth; path; body = "" })))
    [
      ("GET /nope HTTP/1.1\r\n\r\n", "GET", "/nope");
      ("GET /healthz HTTP/1.0\r\n\r\n", "GET", "/healthz");
      ("GET /state?x=1 HTTP/1.0\r\n\r\n", "GET", "/state");
    ];
  Alcotest.(check bool) "a bare word is still a 400" true
    (Http.Testing.(feed (parser ()) "nonsense\r\n\r\n")
    = Some (Error (Http.text ~status:400 "bad request\n")));
  let daemon =
    let speeds = [| 1.0 |] in
    Cluster.Daemon.create
      (Simulation.default_config ~horizon:1.0e9 ~warmup:0.0 ~seed:5L ~speeds
         ~workload:(Workload.paper_default ~rho:0.5 ~speeds)
         ~scheduler:(Scheduler.static Core.Policy.orr) ())
  in
  let server =
    Http.serve_requests ~port:0 ~read_timeout:1.0
      (Cluster.Daemon.handle_request daemon)
  in
  let port = Http.port server in
  Fun.protect
    ~finally:(fun () -> Http.stop server)
    (fun () ->
      let text = "text/plain; charset=utf-8" in
      Alcotest.(check string) "GET /nope, no headers"
        (wire_reply ~status:"404" ~reason:"Not Found" ~content_type:text
           "not found\n")
        (wire_exchange ~port "GET /nope HTTP/1.1\r\n\r\n");
      Alcotest.(check string) "HTTP/1.0 GET /healthz, no headers"
        (wire_reply ~status:"200" ~reason:"OK" ~content_type:text "ok\n")
        (wire_exchange ~port "GET /healthz HTTP/1.0\r\n\r\n"))

let suite =
  [
    test "journal: bounded capacity, systematic sampling" journal_bounded_sampling;
    test "journal: per-stream sampling survives compaction"
      journal_per_stream_sampling;
    test "journal: a block is 4096 x 6 doubles" journal_block_footprint;
    test "journal: compaction keeps every kind's fields" journal_compaction_keeps_fields;
    test "journal: constructor and key validation" journal_validation;
    test "journal: fnv1a64 reference vectors" journal_checksum_vectors;
    test "journal: serialisation roundtrips bit-exactly" journal_roundtrip;
    test "journal: corruption and version skew detected"
      journal_corruption_detected;
    test "journal: atomic write leaves no temp file" journal_write_atomic;
    test "journal: recording stays allocation-light" journal_recording_allocation;
    slow_test "journal: per-job allocation bound holds with telemetry on"
      journal_sim_allocation;
    test "http: routing, errors and idempotent stop" http_server_basics;
    test "http: incremental header scan, byte-at-a-time"
      http_incremental_header_scan;
    test "http: stalled connection gets 408, loop survives"
      http_read_timeout;
    test "http: silent clients do not delay others, each gets 408"
      http_silent_clients;
    test "http: unread response dropped at its deadline" http_stuck_reader;
    test "http: client hanging up mid-response spares the process"
      http_client_hangs_up;
    test "http: stop drops silent clients promptly" http_stop_drops_silent;
    test "http: stop lets in-flight responses finish" http_stop_finishes_writes;
    http_parser_chunking;
    test "http: method+body dispatch and reader error paths"
      http_method_body_dispatch;
    slow_test "serve: endpoints answer mid-run" serve_answers_mid_run;
    slow_test "serve: journaled + served runs bit-identical"
      serve_journal_bit_identity;
    slow_test "crossval: journal agrees with collector in process"
      crossval_roundtrip;
    test "http: exact wire bytes of every status, then EOF" http_wire_bytes;
    test "http: a request without header lines parses and is routed"
      http_headerless_request;
    test "http: a slow steady reader gets the whole body" http_slow_steady_reader;
  ]
