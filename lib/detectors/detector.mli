(** First-class detector values.

    A detector is a consumer of {!Dgrace_events.Event.t} plus the three
    observable products of a run: race reports, memory accounting, and
    stream statistics.  Representing detectors as records (rather than
    functors) lets the engine and the benchmark harness treat every
    algorithm — FastTrack at any granularity, DJIT+, segment-based DRD,
    lockset, hybrid — uniformly. *)

open Dgrace_events
open Dgrace_shadow

type t = {
  name : string;  (** e.g. ["fasttrack-dynamic"] *)
  on_event : Event.t -> unit;
      (** consume the next event of the stream, in order *)
  process_batch : (Batch.t -> unit) option;
      (** Batched fast path: consume a whole {!Batch.t} in row order,
          equivalent to [Batch.iter_events on_event] but free to keep
          caches hot across the batch.  Contract: before handling row
          [i] the implementation must stamp
          [Report.Collector.set_tag collector b.off.(i)] so races are
          attributed to stream positions exactly as the per-event
          engine loop does.  [None] means the engine always uses
          {!on_event} — every detector keeps working without one. *)
  finish : unit -> unit;
      (** end of stream: flush anything pending (e.g. final segment
          comparisons in the DRD detector) *)
  collector : Report.Collector.t;  (** the races found *)
  account : Accounting.t;  (** shadow-memory accounting *)
  stats : Run_stats.t;  (** stream statistics *)
  metrics : Dgrace_obs.Metrics.t;
      (** the detector's instrument registry: phase counters, sharing
          decisions, region-size histograms — empty for detectors that
          expose nothing beyond {!stats} *)
  transitions : Dgrace_obs.State_matrix.t option;
      (** sharing-state transition counts (dynamic-granularity
          detectors only) *)
  degrade : (unit -> bool) option;
      (** Shed shadow memory under budget pressure (graceful
          degradation): each call performs one shedding step —
          dropping fast-path bitmaps, force-coarsening equal-history
          regions onto shared clocks, collapsing read vector clocks —
          and returns [false] once nothing further can be shed.  The
          engine keeps calling while the run is over its
          [max_shadow_bytes] budget; a detector with [None] cannot
          degrade and a breached budget ends its run instead.
          Degraded precision is still sound for writes; dropped read
          history may miss read-write races (documented in
          [doc/resilience.md]). *)
}

val races : t -> Report.t list
val race_count : t -> int

val null : unit -> t
(** A detector that ignores everything — the "base time" measurement of
    the paper's slowdown columns (the workload running uninstrumented).
    Its [process_batch] ignores the batch too, so a batch source's base
    time is the producer's (decoding or simulating) alone, with no
    {!Dgrace_events.Batch.event} per row. *)
