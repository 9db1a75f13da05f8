(** Deterministic fault injection against the whole pipeline.

    The resilience contract this repo makes is {e recover or declare}:
    whatever is thrown at the system — corrupt trace bytes, a workload
    thread that stalls forever, a lock whose unlock is lost — the run
    must end either with results (possibly via resync recovery) or
    with a structured {!Dgrace_resilience.Error.t}.  Never an uncaught
    exception, never a hang.  This harness injects exactly those
    faults, seeded so every run replays byte-for-byte
    ([racedet inject], [bench --faults], and the CI job drive it). *)

(** What to break. *)
type fault =
  | Trace_fault of Dgrace_resilience.Fault.trace_fault
      (** corrupt the recorded trace image before replay *)
  | Stall
      (** a workload thread waits on a flag nobody sets — the run must
          end in a structured deadlock report, not a hang *)
  | Lost_unlock
      (** a thread exits still holding a mutex a later thread needs —
          the deadlock report must name the orphaned lock *)

val all : fault list

val name : fault -> string
(** ["bitflip"], ["truncate"], ["duplicate"], ["stall"],
    ["lost-unlock"]. *)

val of_name : string -> fault option
val names : string list

(** How the run ended. *)
type outcome =
  | Completed of Engine.summary
      (** the fault was absorbed: strict replay still succeeded
          (e.g. a duplicated span that re-decodes as valid records) *)
  | Recovered of {
      recovery : Dgrace_trace.Trace_reader.recovery;
      summary : Engine.summary;
    }  (** strict replay hit corruption; resync salvaged the rest *)
  | Declared of Dgrace_resilience.Error.t
      (** the run failed with the structured error it should *)
  | Unexpected of string
      (** contract violation: an exception escaped — this is the only
          outcome the harness (and CI) treats as a failure *)

val acceptable : outcome -> bool
(** Everything except {!Unexpected}. *)

val describe : outcome -> string
(** One line per outcome, stable for a given seed — the [inject]
    report row. *)

val run :
  ?spec:Spec.t ->
  seed:int ->
  program:(unit -> unit) ->
  fault ->
  outcome
(** Inject one fault and classify the result.

    For a {!Trace_fault}: [program] is recorded to a temporary trace
    (deterministic chunked schedule derived from [seed]), the image is
    corrupted with {!Dgrace_resilience.Fault.apply}, replayed
    strictly, and — when strict replay reports corruption — replayed
    again in resync mode.  Temporary files are removed even on
    exceptions.

    For {!Stall}/{!Lost_unlock}: [program] is ignored and a small
    synthetic workload with the scheduler fault baked in runs under
    {!Engine.analyze}; the expected outcome is a {!Declared}
    deadlock naming the stuck threads (and, for lost unlocks, the
    orphaned mutex).

    Catches every exception: a bug anywhere in the stack surfaces as
    {!Unexpected}, not a harness crash. *)
