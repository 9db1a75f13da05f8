(** Scheduling policies for the cooperative simulator.

    Every simulated operation is a potential preemption point; the
    policy decides which ready thread runs next.  All policies are
    deterministic given their seed, so a workload run is exactly
    reproducible — the property that lets us feed {e identical}
    interleavings to every detector under comparison. *)

type policy =
  | Round_robin
      (** FIFO among ready threads: switch after every operation. *)
  | Random_each of int
      (** [Random_each seed]: uniformly random ready thread after every
          operation. *)
  | Chunked of { seed : int; chunk : int }
      (** [Chunked {seed; chunk}]: keep running the same thread for
          [chunk] operations before switching to a random ready thread.
          Chunky interleavings are what real schedulers produce and
          what makes DJIT+-style epochs long; this is the default used
          by the benchmark workloads. *)

val default : policy
(** [Chunked { seed = 1; chunk = 64 }]. *)

val pp : Format.formatter -> policy -> unit
val to_string : policy -> string

(** Internal picker state used by the simulator. *)
type t

val create : policy -> t

val pick : t -> current:int -> ready_tids:(int -> int) -> n:int -> int
(** [pick t ~current ~ready_tids ~n] chooses the index (in [0..n-1]) of
    the next runnable to execute, where [ready_tids i] gives the thread
    id of runnable [i].  [current] is the thread that just ran (or -1). *)

val stay : t -> others:int -> bool
(** [stay t ~others] is the simulator's inline preemption point for a
    running thread while [others] other threads are ready.  It returns
    [true], applying [pick]'s state change, exactly when [pick] — over
    those threads followed by the running one — would choose the
    running thread: a [Chunked] policy with chunk budget left (one
    unit is consumed), or no other ready thread.  On [false] the
    state is untouched and the caller must yield to [pick]. *)
