(** Offline sharded trace analysis on OCaml 5 domains.

    The trace is split by {!Dgrace_trace.Trace_shard} — accesses
    partitioned by hashed address line, sync events broadcast — and
    each shard replays on its own fresh detector in its own domain.
    Because (a) thread/lock vector clocks advance only on the
    broadcast sync events and (b) the dynamic detector's sharing
    decisions never cross an address line
    ({!Dgrace_detectors.Dynamic_granularity.share_granule}), every
    shard computes bit-identical happens-before state for the
    addresses it owns, and the merged race set equals the sequential
    one — the differential harness in [test/test_par.ml] locks this
    in.  See [doc/parallel.md].

    This module runs shards and reports raw per-shard outcomes; the
    deterministic merge into an engine summary lives in
    [Dgrace_core.Engine.analyze] (the summary type is defined
    there). *)

open Dgrace_events
open Dgrace_detectors
module Budget := Dgrace_resilience.Budget

type mode =
  | Parallel  (** one domain per shard (the default) *)
  | Sequential
      (** shards run one after another on the calling domain — same
          results, and each shard's [busy_s] is then its uncontended
          analysis time, which is what the bench harness uses to
          measure the critical path on machines with fewer cores than
          shards *)

val shard_lane : int -> string
(** [shard_lane i] is ["shard<i>"] — the {!Dgrace_obs.Span} lane name
    shard [i] records on when {!analyze} is given a tracer.  The
    engine uses the same name to point the shard's detector at the
    same lane. *)

type shard_outcome = {
  index : int;
  detector : Detector.t;  (** the shard's detector, after [finish] *)
  tagged_races : (int * Report.t) list;
      (** races in detection order, tagged with the global trace
          offset of the event that surfaced them *)
  stop : (int * Budget.stop) option;
      (** budget stop and the global offset it happened at *)
  degraded : bool;
  events : int;  (** events delivered to this shard (incl. broadcasts) *)
  busy_s : float;  (** wall-clock the shard spent analysing *)
  recorder : Dgrace_obs.Recorder.t option;
      (** the shard's flight recorder (built by [recorder_for],
          flushed), for the engine's time-series merge *)
}

type result = {
  plan : Dgrace_trace.Trace_shard.t;
  outcomes : shard_outcome array;  (** indexed by shard *)
  split_s : float;  (** time spent routing the trace *)
  critical_path_s : float;
      (** max per-shard [busy_s]: the analysis time a machine with
          [shards] free cores would observe *)
  elapsed_s : float;  (** wall-clock including split and joins *)
}

val analyze :
  ?mode:mode ->
  ?budget:Budget.t ->
  ?clock:Dgrace_obs.Clock.source ->
  ?progress:int * (int -> unit) ->
  ?tracer:Dgrace_obs.Span.t ->
  ?recorder_for:(int -> Detector.t -> Dgrace_obs.Recorder.t option) ->
  make:(int -> Detector.t) ->
  shards:int ->
  granule:int ->
  Event.t array ->
  result
(** [analyze ~make ~shards ~granule events] splits and replays.  A
    shard whose detector has a [process_batch] fast path consumes its
    stream as struct-of-arrays batches
    ({!Dgrace_trace.Trace_shard.batches_of}) when no budget, recorder,
    progress heartbeat or tracer is in play, so per-event semantics
    are preserved whenever observable.
    [make i] must build a fresh detector for shard [i] (called once
    per shard, inside the shard's domain; suppression tables are
    immutable and safe to share).  [budget] applies {e per shard}
    through the sequential engine's per-event guard
    ({!Dgrace_detectors.Budget_guard.event}) — shadow pressure
    degrades before stopping, event/deadline caps stop the shard.  [clock] is
    the time source the deadline check reads (default
    {!Dgrace_obs.Clock.ns}; a {!Dgrace_obs.Clock.ticker} makes it
    deterministic in tests).  [progress] is a global heartbeat over
    all delivered events across shards.

    [tracer] records the split, the join barrier, and welding on the
    ["main"] lane, and gives each shard a {!shard_lane} timeline with
    a ["shard.run"] span, a ["shard.finish"] span, a ["budget.stop"]
    instant if its budget fired, and a sampled ["detector.on_event"]
    timer.  [recorder_for i d] may attach a wall-clock flight recorder
    to shard [i]'s detector; it is ticked once per delivered event,
    flushed when the shard ends, and returned in the outcome.
    @raise Invalid_argument if [shards < 1] or [granule] is not a
    power of two. *)

val analyze_pipelined :
  ?slots:int ->
  ?clock:Dgrace_obs.Clock.source ->
  make:(int -> Detector.t) ->
  shards:int ->
  granule:int ->
  string ->
  result * Dgrace_trace.Trace_pipeline.stats
(** [analyze_pipelined ~make ~shards ~granule path] is the streaming
    pipelined counterpart of {!analyze} over a trace-v2 file: a
    sequential prepass folds the file through a
    {!Dgrace_trace.Trace_shard.planner} (straddle welds and broadcast
    counts — and any [Corrupt_trace] surfaces here, with exactly the
    sequential offset), then a decoder domain streams blocks through
    {!Dgrace_trace.Trace_pipeline} while the calling domain routes
    rows into one bounded {!Dgrace_trace.Batch_ring} of recycled
    batches per shard ([slots] buffers each, default
    {!Dgrace_trace.Trace_pipeline.default_slots}) and [shards]
    detector domains drain their rings via [process_batch] (or the
    tagged per-event fallback).  Routing and broadcast classes match
    {!Dgrace_trace.Trace_shard.split} exactly, so the merged outcome
    is bit-identical to {!analyze} on the same trace.  Per-event
    machinery (budgets, recorders, progress, tracing) is not offered
    here — callers needing it use the materialised {!analyze} path.
    [clock] feeds the rings' stall accounting; the summed stalls come
    back in the pipeline stats.
    @raise Invalid_argument if [shards < 1] or [granule] is not a
    power of two.
    @raise Dgrace_resilience.Error.Corrupt_trace as the sequential
    reader would, at the same offset. *)

(** {1 Merge helpers} *)

val merged_races : result -> Report.t list
(** All shards' races, stable-sorted by global trace offset.  Shards
    own disjoint address sets, so no two shards report at the same
    offset and this is exactly the sequential detection order. *)

val merged_stop : result -> (int * Budget.stop) option
(** The stop with the smallest global offset — the earliest point in
    the trace where any shard gave up — or [None] if every shard ran
    to end of stream. *)

val any_degraded : result -> bool
