/* Monotonic nanosecond clock for the benchmark's timings: the wall clock
   available from the OCaml standard library has only microsecond
   resolution, too coarse for per-call timings of sub-microsecond calls. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
