(** Span tracing: a bounded flight recorder of begin/end/instant
    events, exported to Chrome [trace_event] JSON by {!Chrome_trace}.

    A tracer ({!t}) owns one ring buffer ({!buf}, reached with
    {!main}) and is written by one domain — the one running the
    analysis — so recording takes no lock.  The ring is bounded: when
    full, the oldest events are overwritten (and counted as dropped),
    so tracing a run of any length costs fixed memory.

    Tracing is zero-cost when off by construction: the engine only
    calls into this module when a tracer was passed, and the untraced
    event loop is exactly the detector's own handler.  A traced run
    records spans per run phase and per batch, never per event, so it
    runs the same detector code as an untraced one. *)

type t
(** A tracer: the ring, counter tracks and the trace epoch. *)

type buf
(** The tracer's ring.  Single-writer: record from one domain only. *)

val create : ?capacity:int -> ?clock:Clock.source -> unit -> t
(** [capacity] (default 16384, rounded up to a power of two) bounds
    the ring — on a v2 replay, four entries per 4096-row batch.
    [clock] defaults to {!Clock.ns}.
    @raise Invalid_argument when [capacity <= 0]. *)

val epoch_ns : t -> int
(** Clock reading at tracer creation; the exporter's time origin. *)

val main : t -> buf
(** The tracer's ring, exported as the ["main"] timeline. *)

(** {1 Recording} *)

val begin_span : buf -> string -> unit
val end_span : buf -> string -> unit
(** Spans nest; close in LIFO order.  The exporter repairs unbalanced
    pairs (ring overwrite, early stop) so the output always
    validates. *)

val instant : buf -> string -> unit
(** A point event (degradation step, budget stop). *)

val span : buf -> string -> (unit -> 'a) -> 'a
(** [span b name f] wraps [f] in a begin/end pair, exception-safe. *)

(** {1 Counter tracks} *)

val add_counters :
  t -> name:string -> series:string list -> (int * int array) list -> unit
(** [add_counters t ~name ~series samples] attaches one counter track
    [name] with a line per entry of [series]; each sample is an
    absolute clock reading and one value per series — typically
    {!Recorder.stamped} output, attached at end of run. *)

(** {1 Read-out} (used by {!Chrome_trace} and tests) *)

type kind = Begin | End | Instant
type event = { kind : kind; name : string; ns : int }

val iter_events : t -> (event -> unit) -> unit
(** The surviving events, oldest first. *)

type counters = {
  track : string;
  series : string list;
  samples : (int * int array) list;  (** [(ns, values)], oldest first *)
}

val counter_tracks : t -> counters list
(** In attachment order. *)

val dropped : t -> int
(** Events lost to ring overwrite. *)
