(** Export a {!Span} tracer as Chrome [trace_event] JSON — the object
    format Perfetto ({:https://ui.perfetto.dev}) and [chrome://tracing]
    load — plus the validator/aggregator behind [racedet timings] and
    the CI smoke check.

    Output layout (see doc/observability.md for the walkthrough): the
    tracer's ring as one timeline lane named ["main"] (thread id 0),
    and one counter track per {!Span.add_counters} call, one counter
    event per sample with one arg per series.  Timestamps are
    microseconds relative to the tracer's epoch.  The exporter repairs
    what recording could not know: orphan end events are dropped and
    still-open spans are closed at the lane's last timestamp, so the
    output always passes {!validate} — even for a run stopped
    mid-stream by a budget. *)

val to_string : Span.t -> string
(** One line of JSON: [{ "traceEvents": [...], "displayTimeUnit":
    "ms", "otherData": { "generator", "dropped_events" } }], printed
    straight into a buffer (never held as a {!Json.t} tree);
    {!Json.parse} reads it back. *)

val to_file : string -> Span.t -> unit
(** Write {!to_string} plus a trailing newline to a file. *)

(** {1 Validation and aggregation} *)

type report = {
  phases : phase list;  (** sorted by (lane, phase) *)
  events : int;  (** trace events checked *)
  lanes : int;  (** distinct (pid, tid) timeline lanes *)
  wall_us : int;  (** span of timestamps covered *)
}

and phase = {
  phase_lane : string;
  phase_name : string;
  count : int;
  total_us : int;  (** summed begin/end durations; 0 for instants *)
}

val phases : Json.t -> (report, string) result
(** Validate a parsed trace document and aggregate per-phase totals.
    Checks: ["traceEvents"] list present; every event has string
    [ph]/[name] and integer [ts]/[pid]/[tid]; [ph] is one of
    B/E/i/I/C/M; timestamps are monotone per lane (counters and
    metadata exempt); begin/end pairs balance with matching names;
    counters carry a non-empty [args] object of integers (one per
    series). *)

val validate : Json.t -> (unit, string) result
(** {!phases} without the aggregation. *)
