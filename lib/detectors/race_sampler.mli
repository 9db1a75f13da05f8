(** Granule-level sampling with O(1) per-access cost.

    Ground: "Dynamic Race Detection with O(1) Samples" (PAPERS.md) —
    for billion-event traces, analyse a principled subset of accesses
    so the detector's cost is bounded regardless of trace length.
    This wrapper composes that idea with the paper's dynamic-granularity
    insight: the unit of sampling is the {e granule} — the aligned
    {!Dynamic_granularity.share_granule} line that bounds vector-clock
    sharing — not the individual byte or access.

    Why granules: sharing (and with it the whole detector verdict) is
    partitionable by granule — what a detector reports for addresses inside one granule
    depends only on the accesses touching that granule plus the global
    synchronisation order, which the sampler always forwards.  Sampling
    whole granules therefore keeps the inner detector {e exact on the
    sampled subspace}: every race it reports is a race the full run
    reports, bit-identical location and stack, and cell shapes /
    sharing decisions inside a sampled granule are undisturbed.
    Byte- or access-level sampling has neither property (an unsampled
    interleaved write silently weakens the history of its neighbours).

    The selection is a deterministic hash of the granule id — no PRNG,
    no per-granule state, no warm-up: one multiply-shift decides each
    access, so the per-access sampling cost is O(1) and a replayed
    trace samples the identical subset every run (which is what lets
    the bench table check races-found columns into a baseline).

    [Access] mode ("sample:<rate>") is the naive comparison point:
    every access flips an independent deterministic coin, so the
    analysed set is a per-access subsample with none of the granule
    guarantees.  It exists for the bench table's granule-vs-access
    comparison and for [sample:1.0] differential testing.

    Skipped accesses are counted in the [sampling.skipped] counter of
    the inner detector's registry (never in [Run_stats.same_epoch] —
    that field means what it says); analysed accesses in
    [sampling.analysed].  See doc/sampling.md. *)

open Dgrace_events

type mode =
  | Granule  (** sample whole share_granule-aligned lines (default) *)
  | Access  (** independent per-access coin — no granule guarantees *)

val default_seed : int

val granule_of_addr : int -> int
(** The aligned {!Dynamic_granularity.share_granule} line id of an
    address (its index, not its base address). *)

val selected : rate:float -> seed:int -> int -> bool
(** The pure selection decision for a granule id (or, in [Access]
    mode, an access index): a deterministic hash compared against
    [rate].  [rate = 1.0] selects everything. *)

val filtering_batch :
  inner:Detector.t ->
  stats:Run_stats.t ->
  analysed:Dgrace_obs.Metrics.counter ->
  skipped:Dgrace_obs.Metrics.counter ->
  keep:(Batch.t -> int -> bool) ->
  Batch.t ->
  unit
(** Shared batched fast path for sampling wrappers ({!create} and
    {!Literace_sampling}): walk a batch in row order, count stream
    statistics exactly as the per-event wrapper does, copy kept access
    rows and {e all} non-access rows (sync must stay exact) into an
    internal batch — preserving each row's stream offset — and flush
    it through the inner detector's own [process_batch] (or, when the
    inner has none, an offset-stamped per-event loop).  [keep] is
    consulted for access rows only and must match the per-event
    decision function so both paths analyse the identical subset. *)

val create :
  ?mode:mode ->
  ?rate:float ->
  ?seed:int ->
  ?name:string ->
  inner:Detector.t ->
  unit ->
  Detector.t
(** Wrap [inner] (any {!Spec.to_detector} product) in a sampler that
    forwards every synchronisation / alloc / free event and the
    selected fraction [rate] (default [0.1]) of accesses.  In
    [Granule] mode an access straddling a granule boundary is analysed
    when {e either} side is selected, so a selected granule always
    sees its complete access set.  [rate] must be in (0, 1];
    [rate = 1.0] forwards everything and is bit-identical to [inner].
    @raise Invalid_argument on a rate outside (0, 1]. *)
