/* The sampling half of pcprof: run a program under ptrace and read its
   main thread's program counter at a fixed interval.

   The child waits on a pipe until the parent has seized it
   (PTRACE_SEIZE with PTRACE_O_TRACEEXEC), then execs; at the exec stop
   the parent reads /proc/<pid>/maps and /proc/<pid>/exe, which the
   resolver needs for the load base.  After that the parent sleeps one
   interval, interrupts the child (PTRACE_INTERRUPT), reads its
   registers (PTRACE_GETREGS), continues it, and repeats until the
   child exits.  Signals the child receives are passed on; threads it
   starts are not traced, so only the main thread is sampled.

   Linux on x86-64 only, like bench/perf's wait4 stub; elsewhere the
   stub raises. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

#if defined(__linux__) && defined(__x86_64__)
#include <signal.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>

struct samples {
  unsigned long *pc;
  size_t len, cap;
};

static void push(struct samples *s, unsigned long pc)
{
  if (s->len == s->cap) {
    size_t cap = s->cap ? 2 * s->cap : 4096;
    unsigned long *grown = realloc(s->pc, cap * sizeof *grown);
    if (grown == NULL) return; /* out of memory: drop the sample */
    s->pc = grown;
    s->cap = cap;
  }
  s->pc[s->len++] = pc;
}

/* The whole of a /proc file as a malloc'd string ("" on failure). */
static char *slurp(const char *path)
{
  FILE *f = fopen(path, "r");
  size_t len = 0, cap = 4096;
  char *buf = malloc(cap + 1);
  if (buf == NULL) return NULL;
  if (f != NULL) {
    size_t n;
    while ((n = fread(buf + len, 1, cap - len, f)) > 0) {
      len += n;
      if (len == cap) {
        char *grown = realloc(buf, 2 * cap + 1);
        if (grown == NULL) break;
        buf = grown;
        cap *= 2;
      }
    }
    fclose(f);
  }
  buf[len] = '\0';
  return buf;
}

/* Wait for the next stop or the end of [pid]; returns 1 on a stop
   (status in *st), 0 once the child has exited (its exit code, or
   -signal, in *code). */
static int next_stop(pid_t pid, int *st, int *code)
{
  for (;;) {
    pid_t r = waitpid(pid, st, __WALL);
    if (r < 0) {
      if (errno == EINTR) continue;
      *code = -1;
      return 0;
    }
    if (WIFEXITED(*st)) {
      *code = WEXITSTATUS(*st);
      return 0;
    }
    if (WIFSIGNALED(*st)) {
      *code = -WTERMSIG(*st);
      return 0;
    }
    return 1;
  }
}

/* pcprof_run argv interval_us = (exit code, pcs, maps, exe) */
value pcprof_run(value vargv, value vinterval)
{
  CAMLparam2(vargv, vinterval);
  CAMLlocal3(res, pcs, str);
  int argc = Wosize_val(vargv), gate[2], st = 0, code = -1;
  long interval_us = Long_val(vinterval);
  char **argv, *maps = NULL, exe[4096] = "";
  struct samples s = { NULL, 0, 0 };
  pid_t pid;

  if (argc < 1) caml_invalid_argument("pcprof_run: empty command");
  argv = calloc(argc + 1, sizeof *argv);
  if (argv == NULL) caml_raise_out_of_memory();
  for (int i = 0; i < argc; i++) argv[i] = strdup(String_val(Field(vargv, i)));
  if (pipe(gate) < 0) caml_failwith("pcprof: pipe");
  pid = fork();
  if (pid < 0) caml_failwith("pcprof: fork");
  if (pid == 0) {
    char go;
    close(gate[1]);
    if (read(gate[0], &go, 1) != 1) _exit(127);
    execvp(argv[0], argv);
    perror(argv[0]);
    _exit(127);
  }
  close(gate[0]);
  if (ptrace(PTRACE_SEIZE, pid, 0, (void *)PTRACE_O_TRACEEXEC) < 0) {
    int e = errno;
    kill(pid, SIGKILL);
    waitpid(pid, NULL, 0);
    caml_failwith(e == EPERM ? "pcprof: ptrace not permitted"
                             : "pcprof: PTRACE_SEIZE failed");
  }
  if (write(gate[1], "g", 1) != 1) { /* the child then fails its read */ }
  close(gate[1]);

  caml_enter_blocking_section();
  /* up to the exec stop: record the maps and the executable's path */
  while (next_stop(pid, &st, &code)) {
    if (st >> 8 == (SIGTRAP | (PTRACE_EVENT_EXEC << 8))) {
      char path[64];
      ssize_t n;
      snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
      maps = slurp(path);
      snprintf(path, sizeof path, "/proc/%d/exe", (int)pid);
      n = readlink(path, exe, sizeof exe - 1);
      exe[n > 0 ? n : 0] = '\0';
      ptrace(PTRACE_CONT, pid, 0, 0);
      break;
    }
    ptrace(PTRACE_CONT, pid, 0,
           (void *)(long)(st >> 16 ? 0 : WSTOPSIG(st)));
  }
  /* sampling: one interrupt per interval until the child is gone */
  if (maps != NULL) {
    struct timespec ts = { interval_us / 1000000, (interval_us % 1000000) * 1000 };
    for (;;) {
      int alive = 1;
      nanosleep(&ts, NULL);
      ptrace(PTRACE_INTERRUPT, pid, 0, 0);
      while ((alive = next_stop(pid, &st, &code))) {
        if (st >> 16 == PTRACE_EVENT_STOP && WSTOPSIG(st) == SIGTRAP) {
          struct user_regs_struct regs;
          if (ptrace(PTRACE_GETREGS, pid, 0, &regs) == 0) push(&s, regs.rip);
          ptrace(PTRACE_CONT, pid, 0, 0);
          break;
        }
        /* a signal-delivery stop passes the signal on; a group stop
           or another event just continues */
        ptrace(PTRACE_CONT, pid, 0,
               (void *)(long)(st >> 16 ? 0 : WSTOPSIG(st)));
      }
      if (!alive) break;
    }
  }
  caml_leave_blocking_section();

  pcs = caml_alloc(s.len, 0);
  for (size_t i = 0; i < s.len; i++) Store_field(pcs, i, Val_long(s.pc[i]));
  free(s.pc);
  for (int i = 0; i < argc; i++) free(argv[i]);
  free(argv);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, pcs);
  str = caml_copy_string(maps != NULL ? maps : "");
  Store_field(res, 2, str);
  str = caml_copy_string(exe);
  Store_field(res, 3, str);
  free(maps);
  CAMLreturn(res);
}

#else

value pcprof_run(value vargv, value vinterval)
{
  (void)vargv;
  (void)vinterval;
  caml_failwith("pcprof: Linux on x86-64 only");
}

#endif
