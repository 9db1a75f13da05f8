(** The supervised streaming detection server behind [racedet serve].

    Connection I/O runs on systhreads (one accept loop, one reader per
    connection); detection runs on a bounded {!Pool} of worker
    domains.  Each {!Session} has a bounded inbox drained serially by
    one worker at a time, so a session is single-threaded while
    distinct sessions run in parallel.

    Backpressure is explicit: admission past [max_sessions] and BATCH
    frames past the [inbox_frames] bound are answered with an
    [Overloaded] frame carrying a retry hint and counted in {!shed_total};
    nothing is silently dropped out of order.  Failures are
    per-session (crash-only sessions; a worker crash poisons only the
    session it served before the pool restarts the domain).

    See [doc/serve.md] for the wire protocol and lifecycle. *)

module Json = Dgrace_obs.Json
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error

type config = {
  domains : int;  (** worker domains in the pool *)
  max_sessions : int;  (** admission cap on concurrently streaming sessions *)
  inbox_frames : int;  (** bounded per-session inbox *)
  session_deadline_s : float option;  (** watchdog expiry per session *)
  drain_deadline_s : float;  (** grace given to in-flight sessions on drain *)
  retry_after_s : float;  (** hint carried by [Overloaded] *)
  max_frame_bytes : int;
  clock : Dgrace_obs.Clock.source;
      (** drives session budgets, uptime and the watchdog — mock it in
          tests for deterministic expiry *)
  log : string -> unit;  (** supervision log sink *)
  spool_spec : Spec.t;  (** detector for spool-mode sessions *)
  spool_budget : Budget.t;
}

val default_config : config
(** 2 domains, 64 sessions, 64-frame inboxes, no session deadline,
    5 s drain grace, real clock, [stderr] log, dynamic spool spec. *)

type t

(** {1 Socket mode} *)

val start : ?cfg:config -> socket:string -> unit -> t
(** Bind a Unix-domain listener at [socket] (replacing a stale file),
    spawn the accept loop and — when [session_deadline_s] is set — the
    watchdog thread, and return immediately. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting, give in-flight sessions
    [drain_deadline_s] to finish, seal stragglers as partial summaries
    and push them to their clients, then shut the pool down and remove
    the socket.  Idempotent; this is the SIGTERM path. *)

val stop : t -> unit
(** Alias of {!drain}. *)

val wait : t -> unit
(** Block until {!drain} completes (the serve main loop's parking spot). *)

val stopped : t -> bool
val draining : t -> bool

(** {1 Introspection} *)

val status_json : t -> Json.t
(** The status document served for [Status] frames: session counts by
    state (open/stopped/finalized/poisoned/degraded), live shadow
    bytes, shed total, pool health (alive/restarts/lost/queue depth). *)

val shed_total : t -> int

val watchdog_sweep : t -> int
(** One deadline sweep over all sessions on the configured clock;
    returns how many sessions were expired to partial summaries.  The
    production watchdog thread calls this on a timer; tests call it
    directly with a mocked clock. *)

(** {1 Spool mode} *)

val process_spool :
  ?cfg:config ->
  dir:string ->
  unit ->
  (string * (Dgrace_core.Engine.summary, Error.t) result) list
(** One-shot batch mode: every [*.trc] file in [dir] becomes one
    session fed batch by batch through the same session layer
    (identical budget/poison semantics): a v2 trace block by block, a
    v1 trace in {!Dgrace_events.Batch.default_capacity}-row batches;
    processed in parallel on a pool, results in file-name order.  A
    budget stop yields that session's sealed partial summary; corrupt
    traces yield their structured error. *)
