type t = {
  speed : float;
  submit : int -> unit;
  in_system : unit -> int;
  mean_in_system : unit -> float;
  utilization : unit -> float;
  completed : unit -> int;
  work_done : unit -> float;
  reset_stats : unit -> unit;
  set_rate : float -> unit;
  drain : unit -> int list;
  discipline : string;
}
