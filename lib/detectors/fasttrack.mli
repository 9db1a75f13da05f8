(** FastTrack with a fixed detection granularity (paper §II.C, §IV).

    Every granule of [granularity] bytes (1 for the byte detector, 4
    for the word detector) carries a shadow cell with a write epoch and
    an adaptive read state.  Accesses are masked to granule boundaries,
    which is why the word detector can merge distinct sub-word races
    into one and occasionally misreport (§V.A's x264 / ffmpeg
    discussion).  The same-epoch fast path uses per-thread bitmaps
    reset at each epoch boundary (§IV.A). *)

open Dgrace_events

val create :
  ?granularity:int ->
  ?suppression:Suppression.t ->
  unit ->
  Detector.t
(** [create ~granularity ()] — granularity defaults to 1 (byte).  Must
    be a power of two.  Read-shared snapshots are hash-consed in a
    {!Dgrace_vclock.Vc_intern} arena.  [process_batch] applies a batch
    in row order with the same-epoch test inline ({!Batch_apply}).
    [accesses.analysed], [phase.epoch_compare] and [phase.vc_op] count
    the analysed path. *)
