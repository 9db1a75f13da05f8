(** A crash-isolated incremental detection session.

    A session wraps {!Dgrace_core.Spec.to_detector} as a reusable
    handle that accepts the trace batch by batch — the unit the serve
    layer multiplexes onto worker domains.  Each session owns its own
    {!Dgrace_resilience.Budget.t} state, batch-frame decoder, and
    clock.

    The contract is {e crash-only}: no call ever raises.  Every
    failure — a corrupt frame, budget exhaustion, an exception
    escaping the detector — moves the session into a terminal state
    that answers all further calls:

    {v
    Streaming --feed/finalize ok--------------> Streaming | Finalized
    Streaming --budget stop / drain / expire--> Stopped   (partial summary)
    Streaming --corrupt frame / exception-----> Poisoned  (stored Error.t)
    v}

    [Stopped] and [Finalized] keep the sealed {!Dgrace_core.Engine.summary};
    [Poisoned] keeps the {!Dgrace_resilience.Error.t}.  All three drop
    the detector reference, so the session's shadow pages and arena
    become garbage immediately — {!shadow_bytes} reads 0 for any
    terminal session, which is how the chaos gate checks for leaks.

    Calls on one session serialise on an internal mutex; distinct
    sessions are fully independent and may run on distinct domains. *)

open Dgrace_events
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error

type t

type ack = {
  ack_events : int;  (** total events accepted so far *)
  new_races : Report.t list;  (** races first observed in this batch *)
}

val open_ :
  ?budget:Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?suppression:Suppression.t ->
  ?revision:int ->
  id:int ->
  spec:Spec.t ->
  unit ->
  t
(** Fresh session around a fresh detector:
    [of_detector] over {!Dgrace_core.Spec.to_detector}.  [clock] drives
    both the budget deadline and summary elapsed time — pass
    {!Dgrace_obs.Clock.ticker} in tests for deterministic expiry.
    [revision] is the block revision of the session's batch-frame
    bodies (default {!Dgrace_trace.Trace_format_v2.version}).
    @raise Invalid_argument unless the decoder reads [revision]. *)

val of_detector :
  ?budget:Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?revision:int ->
  id:int ->
  Dgrace_detectors.Detector.t ->
  t
(** Wrap an externally built detector — the test hook for proving the
    crash-only contract contains a detector that raises. *)

(** {1 Feeding} *)

val feed_batch_frame : t -> string -> (ack, Error.t) result
(** Decode one BATCH payload — a v2 block body
    ({!Dgrace_trace.Trace_format_v2.encode_body}) — and deliver it.
    Locations intern across frames on a persistent v2 decoder; a
    decode error poisons with the offset absolute in the session's
    batch stream.  Delivery uses the detector's batch fast path when
    it has one; the budget is checked per batch
    ({!Dgrace_detectors.Budget_guard}: the event limit is exact,
    shadow bytes and the deadline may fire up to one batch late). *)

val feed_batch : t -> Dgrace_events.Batch.t -> (ack, Error.t) result
(** Deliver an already-decoded batch (the spool path) under the same
    per-batch budget.  A budget stop seals the partial summary (fetch
    it with {!finalize}) and this call, like every later feed, returns
    the [Budget_exhausted] error so the caller stops sending.  Build
    the batch over {!locs} when the session also takes BATCH frames or
    other batches: one session has one location id space, and a batch
    over another table than the one the detector already resolves
    through poisons it ([Internal], "foreign location table"). *)

val locs : t -> Dgrace_events.Loc_table.t
(** The session's location table: its batch-frame decoder interns
    into it, and the detector resolves every id through it. *)

(** {2 Pipelined BATCH feeding}

    The split form of {!feed_batch_frame} the server uses to overlap
    decode and detect (doc/trace.md): the connection thread calls
    {!decode_batch_frame} — decoding the v2 body into a batch drawn
    from a bounded per-session pool while a worker domain is still
    applying earlier batches — and enqueues the result; the worker
    applies it with {!apply_decoded} (recycling the buffer) or, for a
    decode failure, poisons at the right stream position with
    {!poison_decoded}.  Decodes serialise in frame order; results are
    bit-identical to the inline path. *)

val decode_batch_frame : t -> string -> (Batch.t, Error.t) result
(** Decode one BATCH payload into a pooled batch.  Blocks while the
    pool is exhausted (the worker is [decode] batches behind — this is
    the socket-side backpressure) and fails without blocking once the
    session is terminal or a previous decode failed.  The returned
    batch {e must} be handed to {!apply_decoded}, in decode order. *)

val apply_decoded : t -> Batch.t -> (ack, Error.t) result
(** Deliver one batch returned by {!decode_batch_frame} and recycle
    its buffer into the pool (also on error). *)

val poison_decoded : t -> Error.t -> (ack, Error.t) result
(** Record a {!decode_batch_frame} failure at its position in the
    stream: poisons a streaming session with the given error (the
    terminal answer otherwise) — always an [Error]. *)

(** {1 Results} *)

val races_so_far : t -> Report.t list
(** Races detected so far (detection order); the sealed summary's
    races once terminal, [[]] when poisoned. *)

val finalize : t -> (Engine.summary, Error.t) result
(** Flush the detector and seal the summary.  Idempotent: on a
    [Stopped] or [Finalized] session returns the stored summary
    (partial/degraded flagged per PR 2's contract); on a [Poisoned]
    session returns the stored error. *)

val finalize_partial :
  t -> stop:Budget.stop -> (Engine.summary, Error.t) result
(** Seal now with [partial = Some stop] — the drain path for sessions
    whose client never sent Finish. *)

val abort : t -> Error.t -> unit
(** Poison a streaming session (client vanished mid-stream, protocol
    violation).  No effect once terminal. *)

val expire_if_over : t -> deadline_s:float -> Engine.summary option
(** Watchdog hook: if the session is still streaming past [deadline_s]
    on its own clock, seal it as partial ([Deadline]) and return the
    summary; [None] otherwise. *)

(** {1 Introspection} *)

type state = [ `Streaming | `Stopped | `Finalized | `Poisoned of Error.t ]

val state : t -> state
val id : t -> int
val events : t -> int
val degraded : t -> bool
val elapsed_s : t -> float

val shadow_bytes : t -> int
(** Live shadow bytes — 0 once terminal (the detector is released). *)

val summary : t -> Engine.summary option
(** The sealed summary, once [Stopped] or [Finalized]. *)
