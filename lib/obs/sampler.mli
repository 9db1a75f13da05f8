(** Periodic snapshotting of integer-valued sources into an in-memory
    time-series.

    The engine ticks the sampler once per event; every [every] events
    the sampler reads each source and appends one sample.  This turns
    the end-of-run aggregates (peak bytes, live vector clocks) into the
    paper's memory-over-time behaviour.  [tick] is one integer
    increment and compare until a sample is due. *)

type t

type sample = {
  at_event : int;  (** event count when the snapshot was taken *)
  values : int array;  (** one reading per source, in source order *)
}

val create : every:int -> sources:(string * (unit -> int)) list -> t
(** @raise Invalid_argument when [every <= 0] or [sources] is empty. *)

val tick : t -> unit
(** Count one event; snapshots when the period elapses. *)

val tick_n : t -> int -> unit
(** Count [n] events at once, taking at most one snapshot — for
    sampled event loops that only call in every [n] events.  With
    [n = 1] this is exactly {!tick}. *)

val flush : t -> unit
(** Take a final sample at the current event count (end of run) unless
    one was already taken there; guarantees a non-empty series for any
    run with at least one event. *)

val every : t -> int
val source_names : t -> string list
val length : t -> int
val samples : t -> sample list
(** In chronological order. *)

val to_json : t -> Json.t
(** [{ "every": n, "sources": [..], "samples": [[at_event, v1, ..], ..] }]
    — samples as flat rows to keep large series compact. *)
