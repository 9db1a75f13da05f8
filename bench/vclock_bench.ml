(* The vclock table (ISSUE PR 5 satellite): microbenchmark of the
   Vector_clock fast paths and the Vc_intern arena, plus the arena's
   per-workload statistics under the dynamic detector.

   Part 1 — operation throughput (ops/sec, best of [Measure.reps]
   timed batches) for the operations the access fast path leans on:
   join / leq / assign (array-reusing) / copy (the legacy allocating
   path) and intern under memo hit, bucket hit and miss.  Its last row
   times a lock acquire+release in ns/op over 16K distinct lock ids
   (canneal's per-element atomics), the lock-clock table in isolation.

   Part 2 — allocation profile of the read-capture loop: minor-GC
   words per million capture events, comparing hash-consed interning,
   the unconsed contrast arena (~hash_consing:false: pooled but not
   consed) and the pre-arena per-capture deep copy.  The
   interning-vs-deep-copy reduction is the acceptance number recorded
   in EXPERIMENTS.md.

   Part 3 — `vcstat` lines, one per workload: the dynamic detector's
   vclock.* gauges in machine-readable form for the CI bench-smoke
   guard (bench/vclock_baseline_s1.txt):

     vcstat <workload> <arena-peak-bytes> <dedup x100>

   dedup = intern calls per stored snapshot (higher = more sharing). *)

open Dgrace_core
open Dgrace_vclock
open Dgrace_workloads

let line = String.make 110 '-'

(* ops/sec of [f] applied [batch] times, best of [reps] runs *)
let ops_per_sec ?(batch = 200_000) f =
  let best = ref infinity in
  for _ = 1 to max 1 !Measure.reps do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  if !best > 0. then float_of_int batch /. !best else Float.nan

let mk_clock n =
  let vc = Vector_clock.create () in
  for t = 0 to n - 1 do
    Vector_clock.set vc t ((t * 7) + 3)
  done;
  vc

let micro () =
  Printf.printf "%-26s %14s %14s\n" "operation" "narrow(4t)" "wide(16t)";
  let row name f4 f16 =
    Printf.printf "%-26s %12.1fM %12.1fM\n" name (ops_per_sec f4 /. 1e6)
      (ops_per_sec f16 /. 1e6)
  in
  let pair n =
    let a = mk_clock n and b = mk_clock n in
    Vector_clock.set b (n - 1) 1000;
    (a, b)
  in
  let a4, b4 = pair 4 and a16, b16 = pair 16 in
  row "leq"
    (fun () -> ignore (Vector_clock.leq a4 b4 : bool))
    (fun () -> ignore (Vector_clock.leq a16 b16 : bool));
  let d4 = Vector_clock.create () and d16 = Vector_clock.create () in
  row "join"
    (fun () -> Vector_clock.join d4 a4)
    (fun () -> Vector_clock.join d16 a16);
  row "assign (reusing)"
    (fun () -> Vector_clock.assign d4 a4)
    (fun () -> Vector_clock.assign d16 a16);
  row "copy (allocating)"
    (fun () -> ignore (Vector_clock.copy a4 : Vector_clock.t))
    (fun () -> ignore (Vector_clock.copy a16 : Vector_clock.t));
  let arena = Vc_intern.create () in
  (* hold a base reference so the memoised snapshot stays live — the
     steady state of a read-shared granule *)
  let base4 = Vc_intern.intern arena a4
  and base16 = Vc_intern.intern arena a16 in
  let memo_hit vc () = Vc_intern.release (Vc_intern.intern arena vc) in
  row "intern (memo hit)" (memo_hit a4) (memo_hit a16);
  (* forcing gen to move invalidates the memo: bucket-probe path *)
  let bucket_hit vc n () =
    Vector_clock.set vc (n - 1) (Vector_clock.get vc (n - 1) + 1);
    Vector_clock.set vc (n - 1) (Vector_clock.get vc (n - 1) - 1);
    Vc_intern.release (Vc_intern.intern arena vc)
  in
  row "intern (bucket hit)" (bucket_hit a4 4) (bucket_hit a16 16);
  let clk = ref 1000 in
  let miss vc n () =
    incr clk;
    Vector_clock.set vc (n - 1) !clk;
    Vc_intern.release (Vc_intern.intern arena vc)
  in
  row "intern (miss)" (miss b4 4) (miss b16 16);
  let s4 = Vc_intern.intern arena a4 and s16 = Vc_intern.intern arena a16 in
  row "share (retain+release)"
    (fun () ->
      Vc_intern.retain s4;
      Vc_intern.release s4)
    (fun () ->
      Vc_intern.retain s16;
      Vc_intern.release s16);
  Vc_intern.release s4;
  Vc_intern.release s16;
  Vc_intern.release base4;
  Vc_intern.release base16;
  (* lock clocks: [Vc_env]'s acquire (C_t := C_t ⊔ L) and release
     (L := L ⊔ C_t; tick) over 16K lock ids, visited in a scattered
     order so consecutive operations rarely share a table slot *)
  let locks = 16384 in
  let lock_ns threads =
    let env = Dgrace_detectors.Vc_env.create () in
    let i = ref 0 in
    let op () =
      let tid = !i land (threads - 1) in
      let lock = (!i * 7919) land (locks - 1) in
      Dgrace_detectors.Vc_env.acquire env ~tid ~lock;
      Dgrace_detectors.Vc_env.release env ~tid ~lock;
      incr i
    in
    (* first touch creates every lock clock; time the steady state *)
    for _ = 1 to locks do
      op ()
    done;
    1e9 /. ops_per_sec op
  in
  Printf.printf "%-26s %11.1fns %11.1fns
" "lock acq+rel (16K ids)" (lock_ns 4)
    (lock_ns 16)

(* Minor-GC words per million capture events.  The loop models the
   read-shared fast path: each "event" captures the reader's current
   clock into shadow state, replacing the previous capture; every
   [epoch] events the clock advances (a sync boundary).  With
   interning on, the steady state is a memo hit per event and one
   fresh snapshot per epoch. *)
let capture_words ~consing ~epoch n =
  let arena = Vc_intern.create ~hash_consing:consing () in
  let vc = mk_clock 8 in
  let prev = ref (Vc_intern.intern arena vc) in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    if i mod epoch = 0 then Vector_clock.set vc 0 (Vector_clock.get vc 0 + 1);
    let s = Vc_intern.intern arena vc in
    Vc_intern.release !prev;
    prev := s
  done;
  let dw = Gc.minor_words () -. w0 in
  Vc_intern.release !prev;
  dw *. 1e6 /. float_of_int n

let deep_copy_words ~epoch n =
  let vc = mk_clock 8 in
  let prev = ref (Vector_clock.copy vc) in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    if i mod epoch = 0 then Vector_clock.set vc 0 (Vector_clock.get vc 0 + 1);
    prev := Vector_clock.copy vc
  done;
  let dw = Gc.minor_words () -. w0 in
  ignore !prev;
  dw *. 1e6 /. float_of_int n

let alloc_profile () =
  let n = 1_000_000 and epoch = 64 in
  let on = capture_words ~consing:true ~epoch n in
  let off = capture_words ~consing:false ~epoch n in
  let deep = deep_copy_words ~epoch n in
  Printf.printf
    "\ncapture loop (8 threads, epoch every %d events): minor words / Mev\n"
    epoch;
  Printf.printf "  %-24s %12.0f\n" "interning (consed)" on;
  Printf.printf "  %-24s %12.0f\n" "arena, no consing" off;
  Printf.printf "  %-24s %12.0f\n" "per-capture deep copy" deep;
  let reduction = if deep > 0. then 100. *. (1. -. (on /. deep)) else 0. in
  Printf.printf "  interning allocates %.0f%% fewer minor words than deep copy\n"
    reduction;
  (* machine-readable for the CI smoke step *)
  Printf.printf "vcmicro alloc_reduction_pct %.0f\n" reduction

let vcstat () =
  Printf.printf
    "\nper-workload arena statistics (dynamic detector, vclock.* gauges):\n";
  Printf.printf "%-14s %10s %10s %10s %8s %8s\n" "program" "peak-KB" "interns"
    "stored" "dedup" "memo%";
  List.iter
    (fun (w : Workload.t) ->
      let g = Measure.gauge w Spec.dynamic in
      let interns = g "vclock.interns" and hits = g "vclock.intern_hits" in
      let memo = g "vclock.memo_hits" in
      let stored = max 1 (interns - hits) in
      let dedup = float_of_int interns /. float_of_int stored in
      let memo_pct =
        if interns = 0 then 0.
        else 100. *. float_of_int memo /. float_of_int interns
      in
      Printf.printf "%-14s %10d %10d %10d %7.1fx %7.1f%%\n" w.name
        (Measure.kb (g "vclock.arena_peak_bytes"))
        interns stored dedup memo_pct;
      Printf.printf "vcstat %s %d %d\n" w.name
        (g "vclock.arena_peak_bytes")
        (int_of_float (dedup *. 100.)))
    Registry.all

let run () =
  Printf.printf "\n%s\nTable V. Vector-clock arena: fast-path throughput and \
                 interning profile\n%s\n" line line;
  micro ();
  alloc_profile ();
  vcstat ()
