(** Structured failure for the whole stack.

    Every way a run can fail that is not a programming error in this
    codebase — corrupt input, a deadlocked workload, an exhausted
    resource budget — is a value of {!t}, carrying enough context to
    act on (byte offsets, thread ids, held locks, limits).  The CLI
    maps these to the documented exit-code contract
    (see [doc/resilience.md]); the engine returns them from the
    [_checked] entry points; the fault-injection harness asserts that
    injected faults surface as exactly these values and nothing
    else. *)

type t =
  | Corrupt_trace of {
      path : string option;  (** trace file, when known *)
      offset : int;  (** byte offset of the offending record *)
      events_read : int;  (** events decoded before the failure *)
      reason : string;  (** e.g. ["unknown tag 77"] *)
    }
  | Deadlock of {
      blocked : int list;  (** non-exited thread ids, ascending *)
      held : (int * int) list;  (** (lock id, owner tid), ascending *)
    }
      (** Global deadlock: every live thread is blocked.  [held] names
          the mutexes still held at the time, so the report points at
          the lock-discipline bug rather than just hanging. *)
  | Budget_exhausted of { budget : string; limit : int; actual : int }
      (** A resource budget was exceeded and no degradation could
          bring the run back under it. *)
  | Invalid_input of { what : string; reason : string }
      (** Malformed user input discovered before or during a run. *)
  | Internal of { where : string; reason : string }
      (** An exception escaped a component that promised not to raise —
          the crash-only session layer ([Dgrace_serve.Session]) stores
          one of these as the session's terminal state instead of
          letting the exception cross the server boundary.  [where]
          names the component, [reason] is the rendered exception. *)

exception E of t
(** The carrier used by layers that cannot return a [result]
    (e.g. forcing a lazy trace sequence). *)

(** {1 Exit-code contract}

    [racedet] exits with exactly one of these codes; scripts may rely
    on them. *)

val exit_ok : int
(** 0 — run completed, no races. *)

val exit_races : int
(** 2 — run completed, races found. *)

val exit_partial : int
(** 3 — run ended early or shed precision (budget, deadlock,
    resynced trace); results are a lower bound. *)

val exit_input_error : int
(** 4 — input could not be used (corrupt trace, bad file). *)

val exit_code : t -> int
(** The table above applied to an error: corrupt/invalid input maps to
    {!exit_input_error}; deadlock and budget exhaustion to
    {!exit_partial}; an {!Internal} error — an internal component
    crashed and the failure was contained (crash-only session
    isolation, not silent data loss) — to 5. *)

val to_string : t -> string
(** One line, human-readable, stable across runs of the same input. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Dgrace_obs.Json.t
(** Machine-readable form used by the JSON export and the fault
    harness: [{ "error": <kind>, ... }] with kind-specific fields. *)
