(** The budget guard and progress heartbeat of one detector's stream
    (doc/resilience.md).

    One guard enforces a {!Dgrace_resilience.Budget.t} for the engine's
    sequential replay, each shard of a sharded replay and each serve
    session.  It has two entries: {!event} for a detector fed event by
    event and {!batch} for one fed whole batches through its
    [process_batch].  Both keep the same contract:

    - {b events}: exact.  The run stops when event [max_events + 1]
      arrives, before it is delivered, so a stream of exactly
      [max_events] events completes.  {!batch} applies the rows before
      that event (copied into a fresh batch) and then stops.
    - {b shadow bytes}: while the detector's accounting is over the
      cap, the detector is asked to shed one step at a time; the run
      stops only when nothing more can be shed and it is still over.
    - {b deadline}: polled every 256 events by {!event}, after every
      batch by {!batch}.

    Shadow bytes and the deadline are checked after each delivered
    event by {!event} and after each batch by {!batch}, so on a batch
    source they can fire up to one batch late (at most
    {!Dgrace_events.Batch.default_capacity} rows on a v2 trace). *)

open Dgrace_events

exception Stop of Dgrace_resilience.Budget.stop
(** Raised from {!event} or {!batch} when the run must end.  The
    caller catches it and reports the summary as [partial]. *)

type t

val create :
  ?note:(unit -> unit) ->
  ?progress:int * (int -> unit) ->
  now_s:(unit -> float) ->
  t0:float ->
  Dgrace_resilience.Budget.t ->
  t
(** [create budget] guards one detector's stream.  The guard does not
    hold the detector: {!event} and {!batch} take it, so a caller that
    drops its detector (a finished serve session) frees its shadow
    state.  [note] runs after each shedding step (the trace's
    ["budget.degrade"] instant).  [progress = (every, f)] calls [f n] once for each multiple [n] of
    [every] delivered events, in order, after that event's budget
    checks.  The deadline compares [now_s ()] with [t0].
    @raise Invalid_argument if [every < 1]. *)

val events : t -> int
(** Events delivered so far. *)

val degraded : t -> bool
(** Whether some shedding step ran. *)

val event : t -> Detector.t -> (Event.t -> unit) -> Event.t -> unit
(** [event g d deliver ev] delivers one event: it stops if the event
    budget is spent, calls [deliver ev], then runs the shadow, deadline
    and heartbeat checks; [d] is the detector [deliver] feeds, asked
    to shed when over the shadow cap. *)

val batch : t -> Detector.t -> (Batch.t -> unit) -> Batch.t -> unit
(** [batch g d apply b] delivers one batch through [apply] (a
    [process_batch]).  If the batch holds event [max_events + 1], only
    the rows before it are applied, and the guard stops after the
    shadow, deadline and heartbeat checks.  [apply] never sees an
    exception from the guard; the batch is not retained. *)
