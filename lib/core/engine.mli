(** The analysis engine: run a simulated program (or a recorded event
    stream) under a detector and collect everything the evaluation
    needs — races, stream statistics, shadow-memory accounting,
    wall-clock time, and (on request) a sampled time-series plus the
    detector's own telemetry.

    {!analyze} is the one entry point: a {!Config.t} says which
    detector to run and how to observe it, a {!Source.t} says what to
    analyse.

    {[
      let program () =
        let a = Sim.malloc 64 in
        let t = Sim.spawn (fun () -> Sim.write a 4) in
        Sim.write a 4;
        Sim.join t
      in
      match
        Engine.analyze (Engine.Config.make Spec.dynamic)
          (Engine.Source.Program { policy = Scheduler.default; main = program })
      with
      | Ok s -> List.iter (fun r -> print_endline (Report.to_string r)) s.races
      | Error e -> Format.eprintf "%a@." Dgrace_resilience.Error.pp e
    ]}

    {b Resource budgets.}  [Config.budget] is a
    {!Dgrace_resilience.Budget.t}, enforced by
    {!Dgrace_detectors.Budget_guard}.  Exceeding the shadow-memory cap
    first asks the detector to degrade (shed shadow state; the summary
    is flagged [degraded]); exceeding the event or wall-clock cap —
    or the shadow cap once degradation is exhausted — ends the run
    early with [partial = Some reason].  The event cap stops the run
    when event [max_events + 1] arrives, so a stream of exactly
    [max_events] events completes.  A partial or degraded summary
    still reports every race found: results are a lower bound, never
    garbage.  See [doc/resilience.md].

    {b Clocks.}  [Config.clock] is read once when {!analyze} starts
    and once when it ends — the difference is the summary's [elapsed]
    field, whatever the source — and by the budget's
    deadline check.  Under {!Dgrace_obs.Clock.ticker} both are
    deterministic in tests; the default is {!Dgrace_obs.Clock.ns}. *)

open Dgrace_events
open Dgrace_detectors
open Dgrace_sim

type summary = {
  detector : string;  (** detector name *)
  races : Report.t list;  (** distinct-location races, detection order *)
  race_count : int;
  suppressed : int;  (** reports dropped by suppression rules *)
  stats : Run_stats.t;
  mem : mem_summary;
  elapsed : float;  (** wall-clock seconds for the instrumented run *)
  sim : Sim.result option;
      (** simulator result (None for replays and budget-stopped runs) *)
  partial : Dgrace_resilience.Budget.stop option;
      (** why the run ended before end-of-stream, if it did *)
  degraded : bool;
      (** the detector shed shadow state to stay under its budget *)
  metrics : Dgrace_obs.Metrics.t;  (** the detector's instruments *)
  transitions : Dgrace_obs.State_matrix.t option;
      (** sharing-state transition counts (dynamic detectors) *)
  timeseries : Dgrace_obs.Recorder.t option;
      (** wall-clock-stamped memory/stream samples, present iff
          [sample_every] was given *)
}

and mem_summary = {
  peak_bytes : int;  (** peak of hash + vector clock + bitmap bytes *)
  peak_hash_bytes : int;
  peak_vc_bytes : int;
  peak_bitmap_bytes : int;
  peak_interned_bytes : int;
      (** the deduplicated (hash-consed snapshot) portion of
          [peak_vc_bytes] — an annotation, not a fourth factor of
          [peak_bytes] *)
  peak_vcs : int;  (** max vector clocks simultaneously live *)
  total_vcs : int;  (** vector clocks ever created *)
  avg_sharing : float;  (** average bytes sharing one vector clock *)
}

module Source : sig
  type t =
    | Program of { policy : Scheduler.policy; main : unit -> unit }
        (** execute [main] under the simulator with [policy], feeding
            every event to the detector as it happens *)
    | Events of Event.t Seq.t
        (** a recorded stream, e.g. a v1 trace
            ({!Dgrace_trace.Trace_reader.read}) *)
    | Batches of ((Batch.t -> unit) -> unit)
        (** [Batches feed]: [feed consume] pushes whole
            {!Dgrace_events.Batch.t} buffers — decoded v2 blocks
            ({!Dgrace_trace.Trace_format_v2.fold_batches}) or
            pre-packed arrays *)
    | V2_file of string  (** a trace-v2 file, decoded block by block *)
end

module Config : sig
  type detector =
    | Spec of Spec.t  (** a fresh detector per run *)
    | Detector of Detector.t
        (** a caller-built detector, for callers that hold on to it —
            a heartbeat that reads its stats, a sampling campaign.
            [suppression] and the detector's phase timers
            are the caller's business. *)

  type t = {
    detector : detector;
    suppression : Suppression.t;  (** report filter; default none *)
    budget : Dgrace_resilience.Budget.t;  (** default unlimited *)
    clock : Dgrace_obs.Clock.source;  (** default {!Dgrace_obs.Clock.ns} *)
    sample_every : int option;
        (** snapshot shadow-memory accounting and stream counters every
            N events into [summary.timeseries] (a final sample is
            always taken at end of stream) *)
    progress : (int * (int -> unit)) option;
        (** [(every, f)]: [f events] is called every [every] delivered
            events — the CLI heartbeat *)
    tracer : Dgrace_obs.Span.t option;
        (** the flight recorder (doc/observability.md) *)
  }

  val make : Spec.t -> t
  (** [make spec] runs [spec] with every other field at its default; override fields with [{ (make spec) with ... }]. *)

  val of_detector : Detector.t -> t
  (** [of_detector d] is [make] for a caller-built detector. *)
end

val analyze : Config.t -> Source.t -> (summary, Dgrace_resilience.Error.t) result
(** Run the configured detector over the source.

    The detector runs on the calling domain.  How the source reaches
    it depends only on the source and on whether an {e observer} — a
    limited budget, [sample_every], [progress] or [tracer] — is
    present:

    - [Program] and [Events] dispatch every event to the detector's
      [on_event] as it arrives;
    - [Batches] and [V2_file] hand each batch to the
      detector's [process_batch] ({!Dgrace_detectors.Batch_apply});
      [V2_file] decodes one block at a time on the calling domain into
      one reused batch ({!Dgrace_trace.Trace_format_v2.fold_batches}),
      so no source spawns a domain.  A budget and a [progress] heartbeat keep this
      path ({!Dgrace_detectors.Budget_guard.batch}): the event limit
      cuts the batch at the limit row, shadow bytes and the deadline
      are checked after each batch (up to one batch late), and the
      heartbeat fires once per multiple of its period.  With
      [sample_every] or [tracer], or for a detector without
      [process_batch], each batch is unrolled through the per-event
      path and counted in [engine.batch_fallback].

    Every path gives the same races (content and order), [Run_stats]
    and transition counts as dispatching the same events to a fresh
    detector's [on_event] in order.  [test/test_pipeline.ml] checks
    this lattice against that oracle.

    Observation: [tracer] records the run phase as an ["engine.run"]
    (program) or ["engine.replay"] span on the ["main"] lane,
    [d.finish] as ["engine.finish"], budget shedding and stops as
    ["budget.degrade"]/["budget.stop"] instants, a sampled
    ["detector.on_event"] timer and the detector's per-phase timers;
    each v2 block decode is a ["replay.decode"] span on the ["main"]
    lane.  When nothing is observed the event loop is exactly the
    detector's own handler.

    Every anticipated failure is an [Error]: a corrupt trace
    ([Corrupt_trace], after every block before the damaged one was
    analysed), a deadlocked program ([Deadlock]), and an
    invalid configuration ([Invalid_input]: a non-positive [progress]
    or [sample_every] period).  Budget stops are not
    errors: they give [Ok] with [partial] set. *)

val summarize_detector :
  Detector.t ->
  elapsed:float ->
  partial:Dgrace_resilience.Budget.stop option ->
  degraded:bool ->
  summary
(** Package a finished detector (after [d.finish ()]) as a {!summary} —
    the hook the incremental session layer ([Dgrace_serve.Session])
    uses to report exactly the same document as a one-shot run,
    including the partial/degraded contract. *)

val exit_code_of_summary : summary -> int
(** The documented exit-code contract applied to a completed run:
    {!Dgrace_resilience.Error.exit_partial} when partial or degraded,
    {!Dgrace_resilience.Error.exit_races} when races were found,
    {!Dgrace_resilience.Error.exit_ok} otherwise. *)

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line human-readable rendering (includes [status:] lines for
    partial/degraded runs). *)

(** {1 Structured export}

    Versioned machine-readable documents (see {!Dgrace_obs.Export} and
    [doc/observability.md]). *)

val summary_to_json : ?workload:Dgrace_obs.Json.t -> summary -> Dgrace_obs.Json.t
(** One run as a [kind = "run"] envelope: summary, stats, memory
    peaks, metrics, partial/degraded flags (plus [stop_reason] when
    partial), and — when present — transition matrix and time-series.
    Since schema v3 the wall clock is the envelope's own ["elapsed_s"]
    field. *)

val summaries_to_json :
  ?workload:Dgrace_obs.Json.t ->
  ?elapsed_s:float ->
  summary list ->
  Dgrace_obs.Json.t
(** Several runs of the same workload as a [kind = "compare"]
    envelope; [elapsed_s] (total wall clock for the whole comparison)
    goes on the envelope, while each nested run object keeps its own
    ["elapsed_s"]. *)
