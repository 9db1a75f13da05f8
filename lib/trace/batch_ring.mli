(** A bounded ring of recycled {!Dgrace_events.Batch.t} buffers between
    one producer (a decoder domain) and one consumer (the detector).

    The ring owns its batches.  Producer protocol: {!acquire} an empty
    batch (blocks while all slots are in flight — that wait is decode
    stall), fill it, {!publish} it; on end of stream {!close}, passing
    the terminating exception if the stream ended in one.  Consumer
    protocol: {!take} a batch (blocks while none is ready — detect
    stall), apply it, {!recycle} it.  [take] returns [None] only after
    a clean close {e and} a drained ring, and raises the close error
    only after the ring drains — so a mid-file [Corrupt_trace] reaches
    the consumer after exactly the batches the sequential reader would
    have delivered.  {!abort} (consumer side) releases a blocked
    producer, whose next [acquire] returns [None].

    Batches taken from the ring obey the recycling contract in
    [batch.mli]: a batch is invalid after it is recycled.

    {b Serve and benchmark only.}  Its users are a serve session's
    decode pool ([Session.dpool]) and {!Trace_pipeline}, which only
    bench/perf still runs; [racedet replay] decodes without it. *)

open Dgrace_events

type t

val create :
  ?slots:int -> ?capacity:int -> ?clock:(unit -> int) -> unit -> t
(** [slots] (default 4, min 2) bounds how many batches exist — the
    decoder can run at most [slots - 1] blocks ahead.  [clock] is a
    monotonic nanosecond source for stall accounting; defaults to a
    null clock (stalls read 0). *)

val acquire : t -> Batch.t option
(** Producer: a cleared batch to fill, or [None] after {!abort}. *)

val publish : t -> Batch.t -> unit
(** Producer: hand a filled batch to the consumer. *)

val restore : t -> Batch.t -> unit
(** Producer: return an acquired batch unfilled (clean EOF). *)

val close : ?error:exn -> t -> unit
(** Producer: no more batches.  [error] is re-raised by {!take} once
    the ring drains.  Idempotent (the first close wins). *)

val take : t -> Batch.t option
(** Consumer: next filled batch; [None] after a clean close drains.
    Re-raises the close error once every earlier batch was taken. *)

val recycle : t -> Batch.t -> unit
(** Consumer: done with a taken batch; it may be reused immediately. *)

val abort : t -> unit
(** Consumer: stop the producer (its [acquire] returns [None]). *)

val decode_stall_ns : t -> int
(** Total time the producer spent blocked waiting for a free slot. *)

val detect_stall_ns : t -> int
(** Total time the consumer spent blocked waiting for a filled slot. *)

val blocks : t -> int
(** Batches published so far. *)
