(** Sharded replay of a trace-v2 file on OCaml 5 domains — a
    benchmark probe, not a product path.

    [racedet] has no sharded replay: on two cores it never beat one
    detector, because every shard replays every sync row
    (doc/parallel.md has the measurements).  This module stays only
    for the benchmark's [par.*] per-layer rows, and its one law —
    {!analyze_pipelined} at any shard count reports exactly the races
    of a sequential [Dgrace_core.Engine.analyze] — is checked by
    [test/test_par.ml].

    Accesses are partitioned by hashed address line
    ({!Dgrace_trace.Trace_shard}), sync/alloc/free rows are broadcast,
    and each shard replays on its own fresh detector.  Because thread
    and lock clocks advance only on the broadcast rows and the dynamic
    detector's sharing decisions never cross an address line
    ({!Dgrace_detectors.Dynamic_granularity.share_granule}), every
    shard computes the sequential happens-before state for the
    addresses it owns. *)

open Dgrace_events
open Dgrace_detectors

type shard_outcome = {
  tagged_races : (int * Report.t) list;
      (** races in detection order, tagged with the global trace
          offset of the event that surfaced them *)
  events : int;  (** events delivered to this shard (incl. broadcasts) *)
  busy_s : float;  (** wall-clock the shard spent analysing *)
}

type result = {
  outcomes : shard_outcome array;  (** indexed by shard *)
  split_s : float;  (** the planner prepass *)
  critical_path_s : float;  (** max per-shard [busy_s] *)
  elapsed_s : float;  (** wall-clock including the prepass and joins *)
}

val analyze_pipelined :
  ?slots:int ->
  ?clock:Dgrace_obs.Clock.source ->
  make:(int -> Detector.t) ->
  shards:int ->
  granule:int ->
  string ->
  result * Dgrace_trace.Trace_pipeline.stats
(** [analyze_pipelined ~make ~shards ~granule path] replays a
    trace-v2 file on [shards] detector domains.  A sequential prepass
    folds the file through a {!Dgrace_trace.Trace_shard.planner}
    (straddle welds — and any [Corrupt_trace] surfaces here, with
    exactly the sequential offset).  Then a decoder domain streams
    blocks through {!Dgrace_trace.Trace_pipeline} while the calling
    domain routes rows into one bounded {!Dgrace_trace.Batch_ring} of
    recycled batches per shard ([slots] buffers each, default
    {!Dgrace_trace.Trace_pipeline.default_slots}), and each shard's
    domain drains its ring via [process_batch] (or a tagged per-event
    fallback, counted in [engine.batch_fallback]).  [make i] builds
    shard [i]'s fresh detector.  [clock] feeds the rings' stall
    accounting; the summed stalls come back in the pipeline stats.
    @raise Invalid_argument if [shards < 1] or [granule] is not a
    power of two.
    @raise Dgrace_resilience.Error.Corrupt_trace as the sequential
    reader would, at the same offset. *)

val merged_races : result -> Report.t list
(** All shards' races, stable-sorted by global trace offset.  Shards
    own disjoint address sets, so no two shards report at the same
    offset and this is exactly the sequential detection order. *)
