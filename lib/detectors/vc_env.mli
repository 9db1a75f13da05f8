(** Thread and lock vector-clock state shared by all happens-before
    detectors (DJIT+, FastTrack at any granularity, the dynamic
    detector, and the segment-based DRD detector).

    A thread's execution is a sequence of epochs; the thread's own
    component of its clock is incremented at every epoch boundary
    (lock release, fork, thread exit), and clocks flow between threads
    through lock objects and fork/join edges exactly as in §II of the
    paper. *)

open Dgrace_vclock
open Dgrace_events

type t

val create : unit -> t

val clock_of : t -> int -> Vector_clock.t
(** The (mutable, live) clock of a thread; created on first use with
    the thread's own component set to 1. *)

val epoch_of : t -> int -> Epoch.t
(** [E(t) = C_t(t)@t], the thread's current epoch. *)

val thread_count : t -> int
(** Number of distinct thread ids seen. *)

val acquire : t -> tid:int -> lock:int -> unit
(** [C_t := C_t ⊔ L]. *)

val release : t -> tid:int -> lock:int -> unit
(** [L := L ⊔ C_t; C_t(t) += 1] — starts a new epoch for [t]. *)

val fork : t -> parent:int -> child:int -> unit
(** [C_child := C_child ⊔ C_parent; C_parent(parent) += 1]. *)

val join : t -> parent:int -> child:int -> unit
(** [C_parent := C_parent ⊔ C_child]. *)

val handle : t -> Event.t -> on_boundary:(int -> unit) -> bool
(** Dispatch a synchronisation event ([Acquire], [Release], [Fork],
    [Join], [Thread_exit]); returns [false] for events this module does
    not handle (accesses, alloc/free).  [on_boundary tid] is invoked
    whenever thread [tid] enters a new epoch, so the detector can reset
    that thread's same-epoch bitmap. *)

val handle_coded :
  t -> kind:int -> a:int -> b:int -> on_boundary:(int -> unit) -> bool
(** {!handle} driven off a {!Batch.t} row's kind code and a/b columns
    (tid/lock or parent/child) without building an [Event.t] — the
    batched fast path's shape.  Returns [false] for non-sync codes. *)
