/* Reap a child with wait4(2) so the benchmark gets the child's own
   peak RSS and CPU times, which OCaml's Unix.waitpid does not expose;
   and bind the benchmark to one CPU, which OCaml's Unix cannot do. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perf_wait4 pid = (exit code or -signal, ru_maxrss KiB, user s, sys s) */
value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, user, sys);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  user = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
  sys = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2, user);
  Store_field(res, 3, sys);
  CAMLreturn(res);
}

/* perf_pin_cpu () binds the calling thread, and so every child it
   spawns afterwards, to the highest-numbered CPU it may run on, and
   returns that CPU's number. */
value perf_pin_cpu(value unit)
{
  cpu_set_t set;
  int cpu;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_getaffinity");
  for (cpu = CPU_SETSIZE - 1; cpu >= 0 && !CPU_ISSET(cpu, &set); cpu--)
    ;
  if (cpu < 0) caml_failwith("sched_getaffinity: no CPU");
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    caml_failwith("sched_setaffinity");
  return Val_int(cpu);
}
