(** Cooperative multithreaded execution simulator.

    This is the instrumentation substrate that stands in for Intel PIN
    plus pthreads: workload code written against this API is "run" by a
    deterministic scheduler, and every shared memory access and
    synchronisation operation is delivered, in execution order, to an
    event sink (the race detector under test).

    Thread bodies are ordinary OCaml functions that call the operations
    below; each thread runs on its own OCaml 5 fiber, so arbitrary
    control flow (loops, recursion, higher-order code) works unchanged
    inside a thread.  An operation runs directly on the calling fiber
    and performs an effect only when the thread gives up the CPU (the
    policy switches away, or the operation blocks).

    Every operation, sync-object constructors included, must be called
    from inside {!run}, which makes the running simulator reachable
    through one global slot.  Calling an operation elsewhere raises
    [Effect.Unhandled]; calling a constructor elsewhere raises
    [Invalid_argument].

    One domain at a time simulates: a {!run} from a second domain while
    a run is live raises [Invalid_argument], and only the running
    domain may call operations.  A {!run} nested inside a running
    program restores the outer run's state when it ends. *)

open Dgrace_events

type mutex
(** A mutual-exclusion lock.  Locks are sync objects with ids disjoint
    from memory addresses. *)

type barrier
(** A reusable cyclic barrier: all arrivals happen-before all
    departures of the same generation. *)

type event_flag
(** A one-shot signalling flag: [set] happens-before every [wait] that
    observes it. *)

type condition
(** A condition variable used with a {!mutex}: [wait] releases the
    mutex, blocks until signalled, and re-acquires it.  Signals
    happen-before the wakeups they cause.  No spurious wakeups. *)

type semaphore
(** A counting semaphore: every [post] happens-before the [wait] it
    permits. *)

type deadlock_info = {
  blocked : int list;  (** non-exited thread ids, ascending *)
  held : (int * int) list;
      (** [(lock id, owner tid)] for every mutex still held — including
          mutexes held by threads that already exited (a lost unlock),
          which is usually the bug the report points at *)
}

exception Deadlock of deadlock_info
(** Raised by {!run} when no thread is runnable but some are blocked:
    a structured report of who is stuck and which locks are held,
    instead of a hang. *)

(** {1 Sync object constructors (inside [run] only)}

    Sync-object ids are numbered per {!run}, from 1, in creation
    order (atomic operations number their hidden sync objects on first
    use), so two identical runs emit identical event streams whatever
    ran before them in the process.  A sync object belongs to the run
    that made it: create it inside the program body.
    @raise Invalid_argument when called outside {!run}. *)

val mutex : unit -> mutex
val barrier : int -> barrier
(** [barrier n] for [n] participating threads. *)

val event : unit -> event_flag
val condition : unit -> condition

val semaphore : int -> semaphore
(** [semaphore n] with initial count [n] (>= 0). *)

val mutex_id : mutex -> int
(** The sync-object id carried by [Acquire]/[Release] events. *)

(** {1 Operations (inside [run] only)} *)

val self : unit -> int
(** Current thread id (the initial thread is 0). *)

val spawn : (unit -> unit) -> int
(** Start a thread; returns its id.  Emits [Fork]. *)

val join : int -> unit
(** Wait for a thread to finish.  Emits [Join] when it has. *)

val read : ?loc:string -> int -> int -> unit
(** [read addr size] — a shared load of [size] bytes at [addr]. *)

val write : ?loc:string -> int -> int -> unit
(** [write addr size] — a shared store. *)

val lock : mutex -> unit
(** Acquire; blocks while held by another thread.  Emits [Acquire]. *)

val unlock : mutex -> unit
(** Release.  @raise Invalid_argument if not held by the caller. *)

val with_lock : mutex -> (unit -> 'a) -> 'a
(** [with_lock m f] brackets [f] with {!lock}/{!unlock}. *)

val try_lock : mutex -> bool
(** Acquire if free ([true], emits [Acquire]); otherwise return [false]
    immediately with no event. *)

val cond_wait : condition -> mutex -> unit
(** Release the mutex, block until {!cond_signal}/{!cond_broadcast},
    re-acquire the mutex.  @raise Invalid_argument if the mutex is not
    held by the caller. *)

val cond_signal : condition -> unit
(** Wake one waiter (no-op when none wait). *)

val cond_broadcast : condition -> unit
(** Wake every waiter. *)

val sem_wait : semaphore -> unit
(** Decrement, blocking while the count is zero. *)

val sem_post : semaphore -> unit
(** Increment, waking one blocked waiter if any. *)

val malloc : ?align:int -> int -> int
(** Allocate simulated heap memory; emits [Alloc] and returns the base
    address. *)

val calloc : ?align:int -> ?loc:string -> int -> int
(** {!malloc} followed by a zeroing {!write} of the whole block — the
    initialisation pattern the paper's Init state exploits. *)

val free : int -> unit
(** Release a block; emits [Free] so detectors retire shadow state. *)

val static_alloc : ?align:int -> int -> int
(** Allocate global/static data (no event emitted; never freed). *)

val barrier_wait : barrier -> unit
(** Arrive at the barrier and block until all parties have arrived.
    Emits [Release] on arrival and [Acquire] on departure, giving the
    all-arrivals-happen-before-all-departures edges. *)

val event_set : event_flag -> unit
(** Signal the flag (emits [Release] on its sync object). *)

val event_wait : event_flag -> unit
(** Block until the flag is set (emits [Acquire] once it is). *)

val atomic_load : ?loc:string -> int -> int -> unit
(** [atomic_load addr size] — an acquire-load with the happens-before
    edges of a C11 SC atomic read (serialised with all other atomics on
    the address). *)

val atomic_store : ?loc:string -> int -> int -> unit
(** Release-store counterpart of {!atomic_load}. *)

val atomic_rmw : ?loc:string -> int -> int -> unit
(** [atomic_rmw addr size] models a lock-free atomic read-modify-write:
    an [Acquire]/read/write/[Release] on a sync object private to
    [addr].  Gives the happens-before edges a C11 SC atomic provides,
    so correctly-synchronised lock-free code is race-free. *)

val yield : unit -> unit
(** Preemption point with no event. *)

(** {1 Running} *)

type result = {
  threads : int;  (** total threads created (including the initial one) *)
  events : int;  (** events delivered to the sink *)
  accesses : int;  (** [Access] events among them *)
  total_allocated : int;  (** cumulative heap bytes allocated *)
}

val run :
  ?policy:Scheduler.policy ->
  ?sink:(Event.t -> unit) ->
  (unit -> unit) ->
  result
(** [run main] executes [main] as thread 0, scheduling all spawned
    threads until every thread has finished.  Each emitted event is
    passed to [sink] (default: ignore) before the next operation runs.

    If [sink] raises, the run stops at that event: the exception
    escapes [run] unchanged, no later event is delivered, and thread
    code never sees it (a [with_lock] cleanup does not run).  The
    same holds for an invalid allocation size or [join] target, and
    the thread-id limit.  Misuse of a sync object ([lock] of a held
    mutex, [unlock] or [cond_wait] without the mutex, a bad [free])
    raises [Invalid_argument] in the calling thread instead.
    @raise Deadlock on global deadlock.
    @raise Invalid_argument if another domain's run is live. *)

val run_batches :
  ?policy:Scheduler.policy ->
  ?rows:(int -> int) ->
  consume:(Batch.t -> unit) ->
  (unit -> unit) ->
  result
(** [run_batches ~consume main] is {!run} with the events delivered as
    rows of one {!Batch.t} that the run owns, instead of one
    {!Event.t} each: an access becomes a row with no event allocated
    (its location interned into the batch's table), and the schedule
    and stream are exactly {!run}'s.  Row [i] of the stream carries
    [off = i].

    [consume] gets the batch each time it holds [rows n] rows, where
    [n] is the number of events before the batch's first row ([rows]
    is clamped to [1 .. Batch.default_capacity], its default), and
    once more with the pending rows, if any, before [run_batches]
    returns or raises: rows emitted before a [Deadlock], an invalid
    allocation size or [join] target, the thread-id limit, or a misuse
    exception that escapes a thread reach [consume] before that
    exception escapes.  An exception [consume] raises there replaces
    it (a budget stop inside the pending rows wins).  The batch
    follows {!Batch}'s recycling contract: it is cleared once
    [consume] returns or raises, so no row is delivered twice.

    If [consume] raises on a full batch, the run stops there as it
    does for a raising sink in {!run}: the exception escapes
    unchanged, and thread code never sees it. *)
