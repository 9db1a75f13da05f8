(** Two-stage v2 replay: a decoder domain streams blocks into a
    bounded {!Batch_ring} while the calling domain consumes them.

    {b Benchmark-only.}  [racedet] and [Engine] no longer use it: a
    replay decodes inline ({!Trace_format_v2.fold_batches}), which
    measured faster on one and on two cores (doc/trace.md, "Replay
    decodes inline").  It stays for bench/perf's pipelined rows
    ([bench/perf/traced.ml], and the [par.*] rows through
    [Par.analyze_pipelined]) and goes with them.

    [feed path consume] spawns the decoder, applies [consume] to every
    batch in file order (same row numbering and decoder state as
    {!Trace_format_v2.fold_batches} — the batch is invalid once
    [consume] returns, per the recycling contract in [batch.mli]), and
    returns pipeline statistics.  A decoder error ([Corrupt_trace])
    is re-raised here only after all earlier batches were consumed, so
    it surfaces with the same absolute offset and after the same
    prefix as the sequential path.  If [consume] raises, the decoder
    is aborted and joined before the exception escapes.

    [slots] sizes the ring (decoder runs ≤ [slots - 1] blocks ahead);
    [clock] is a nanosecond source for stall accounting. *)

open Dgrace_events

type stats = {
  blocks : int;  (** batches delivered by the decoder *)
  decode_stall_ns : int;  (** decoder blocked on a full ring *)
  detect_stall_ns : int;  (** consumer blocked on an empty ring *)
  decode_ns : int;  (** decoder domain wall time, stalls included *)
}

val default_slots : int
(** Ring slots used when [slots] is omitted (4: triple buffering plus
    one in flight on each side). *)

val feed :
  ?slots:int ->
  ?clock:(unit -> int) ->
  string ->
  (Batch.t -> unit) ->
  stats
