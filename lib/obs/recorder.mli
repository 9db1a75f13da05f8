(** The flight recorder: {!Sampler} extended with a wall-clock time
    dimension.  Each sample the sampler takes is stamped with the
    clock, giving memory-over-time series a real x-axis (the sampler
    alone only knows event counts) and feeding Chrome counter tracks
    via {!counter_series}. *)

type t

val create :
  ?clock:Clock.source ->
  every:int ->
  sources:(string * (unit -> int)) list ->
  unit ->
  t
(** Same contract as {!Sampler.create}; [clock] defaults to
    {!Clock.ns}.
    @raise Invalid_argument when [every <= 0] or [sources] is empty. *)

val tick : t -> unit
(** {!Sampler.tick} plus a clock stamp when a sample was taken; costs
    one extra comparison on the non-sampling path. *)

val tick_n : t -> int -> unit
(** {!Sampler.tick_n} with the same stamping — for sampled event loops
    that batch their recorder bookkeeping. *)

val flush : t -> unit
(** {!Sampler.flush}, stamping the tail sample. *)

val sampler : t -> Sampler.t
val epoch_ns : t -> int
(** Clock reading at creation. *)

val times_ns : t -> int list
(** Absolute clock reading of each sample, chronological; same length
    as [Sampler.samples (sampler t)]. *)

val counter_series : t -> (string * (int * int) list) list
(** One [(ns, value)] series per source — the shape
    {!Span.add_counter_series} takes. *)

val to_json : t -> Json.t
(** {!Sampler.to_json} plus an ["at_s"] array: seconds since the
    recorder's epoch, one per sample. *)
