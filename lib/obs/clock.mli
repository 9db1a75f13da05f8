(** Nanosecond wall-clock readings for span tracing.

    A {!source} is any [unit -> int] producing nanoseconds; the tracing
    layer takes one at construction so tests can substitute a
    deterministic clock ({!ticker}) for the real one ({!ns}). *)

type source = unit -> int
(** Nanoseconds as a plain (unboxed) [int]. *)

val ns : source
(** The real wall clock ([Unix.gettimeofday], scaled).  May step
    backwards under clock adjustment; {!Span} clamps its timestamps
    so exported traces stay monotone regardless. *)

val ticker : ?start:int -> ?step:int -> unit -> source
(** [ticker ()] is a deterministic source for tests: the first reading
    is [start] (default 0) and each subsequent reading advances by
    [step] nanoseconds (default 1000). *)
