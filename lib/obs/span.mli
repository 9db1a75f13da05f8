(** Span tracing: a bounded flight recorder of begin/end/instant
    events, one lock-free lane per domain, exported to Chrome
    [trace_event] JSON by {!Chrome_trace}.

    A tracer ({!t}) owns a set of {e lanes} ({!buf}): the main thread
    registers [main t], and a second domain registers its own, say
    [lane t "worker"].  Every lane must have exactly one writing
    domain — recording then needs no synchronisation; only lane
    registration takes the tracer's mutex.  Each lane is a bounded
    ring: when full, the oldest events are overwritten (and counted as
    dropped), so tracing a run of any length costs fixed memory.

    Tracing is zero-cost when off by construction: the engine only
    calls into this module when a tracer was passed, and the untraced
    event loop is exactly the detector's own handler. *)

type t
(** A tracer: lanes + counter tracks + the trace epoch. *)

type buf
(** One lane.  Single-writer: record only from the domain that owns
    it. *)

val create : ?capacity_per_lane:int -> ?clock:Clock.source -> unit -> t
(** [capacity_per_lane] (default 65536, rounded up to a power of two)
    bounds each lane's ring.  [clock] defaults to {!Clock.ns}.
    @raise Invalid_argument when [capacity_per_lane <= 0]. *)

val epoch_ns : t -> int
(** Clock reading at tracer creation; the exporter's time origin. *)

val main : t -> buf
(** The lane named ["main"] (registered on first use). *)

val lane : t -> string -> buf
(** [lane t name] finds or registers the lane [name].  Safe to call
    from any domain; returns the same [buf] for the same name. *)

(** {1 Recording} *)

val begin_span : buf -> string -> unit
val end_span : buf -> string -> unit
(** Spans nest per lane; close in LIFO order.  The exporter repairs
    unbalanced pairs (ring overwrite, early stop) so the output always
    validates. *)

val instant : buf -> string -> unit
(** A point event (degradation step, budget stop, weld). *)

val span : buf -> string -> (unit -> 'a) -> 'a
(** [span b name f] wraps [f] in a begin/end pair, exception-safe. *)

(** {1 Sampled aggregate timers}

    Cheap per-phase attribution for per-access call sites: one {e
    armed} op in [mask + 1] is actually timed and the per-phase
    estimate scales the sampled mean to the full op count.  A lane's
    timers are armed by default; an event loop that owns the lane can
    take over the sampling with {!wrap_dispatch}, which arms the lane
    for one event in [stride] — a disarmed [timer_start] costs one
    load and one branch, which is what keeps tracing within its
    overhead budget on per-access sites.  The exporter renders each
    timer as a complete ("X") event on a synthetic [<lane> phases]
    lane with op/sample counts in its args. *)

type timer

val timer : buf -> name:string -> mask:int -> timer
(** @raise Invalid_argument unless [mask] is [2^k - 1]. *)

val disabled : unit -> timer
(** A timer that never samples and is never exported: a load and a
    branch per call.  Detectors keep it in place of a real timer when
    no tracer was attached, so per-access sites have one unconditional
    code path — and the off-vs-on cost difference the tracing-overhead
    budget measures stays at the event loop, not in the detector. *)

val timer_start : timer -> unit
(** No-op while the lane is disarmed. *)

val timer_stop : timer -> unit
(** [timer_stop] is a no-op unless this op was sampled. *)

val timer_time : timer -> (unit -> 'a) -> 'a
(** [timer_time tm f] runs [f] under start/stop, exception-safe. *)

val wrap_dispatch :
  buf -> name:string -> stride:int -> on_sample:(unit -> unit) ->
  ('a -> unit) -> 'a -> unit
(** [wrap_dispatch b ~name ~stride ~on_sample f] is [f] as a sampled
    per-event sink: one event in [stride] runs with the lane armed and
    is timed under a timer called [name]; [on_sample] runs after each
    sampled event (coarse bookkeeping — e.g. a recorder tick batched
    by [stride]).  Taking over the lane disarms it for all other
    events, and the read-out ({!lane_views}) scales every timer on the
    lane by [stride].  One wrapper per lane: the last call's [stride]
    wins.  Not exception-safe: an exception from a sampled call loses
    that one sample (the engine only stops a sink by exception, and a
    lost sample only widens the estimate's error bar).
    @raise Invalid_argument unless [stride] is a power of two. *)

(** {1 Counter tracks} *)

val add_counter_series : t -> name:string -> (int * int) list -> unit
(** [(ns, value)] samples (absolute clock readings) attached at end of
    run — typically {!Recorder} output — rendered as a Chrome counter
    track. *)

(** {1 Read-out} (used by {!Chrome_trace} and tests) *)

type kind = Begin | End | Instant
type event = { kind : kind; name : string; ns : int }

type timer_view = {
  timer_name : string;
  ops : int;
  sampled : int;
  estimate_ns : int;
}

type lane_view = {
  lane : string;
  id : int;  (** registration order; the exporter's tid *)
  events : event list;  (** oldest surviving entry first *)
  timers : timer_view list;
  lane_dropped : int;  (** events overwritten by the ring *)
}

val lane_views : t -> lane_view list
(** In registration (id) order. *)

val counter_tracks : t -> (string * (int * int) list) list
val dropped : t -> int
(** Total events lost to ring overwrite across all lanes. *)
