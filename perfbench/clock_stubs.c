/* Monotonic clock with nanosecond resolution.  Unix.gettimeofday has
   microsecond resolution, too coarse for solves that take a few
   microseconds. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
