(* Monotonic clock, nanosecond resolution. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Seconds since an arbitrary fixed origin (boot). *)
let now () = float_of_int (now_ns ()) *. 1e-9
