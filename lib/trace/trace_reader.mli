(** Replays event streams recorded by {!Trace_writer}.

    All failure is structured: malformed input raises
    [Dgrace_resilience.Error.E (Corrupt_trace ...)] carrying the file
    path, the byte offset of the offending record, the number of
    events decoded before it, and a reason — never a bare
    [End_of_file] or [Trace_format.Corrupt].  Field values are bounds-checked
    (see {!Trace_format.max_tid} and friends) so a corrupt varint
    cannot drive downstream detectors into pathological allocation.

    Two reading modes:
    - {b strict} ({!read}, {!fold_file}, {!read_file}): the first bad
      record aborts with the structured error;
    - {b resync} ({!read_file_resync}): a bad
      record is skipped by scanning forward to the next offset where a
      whole record decodes, and the {!recovery} report says exactly
      what was dropped. *)

open Dgrace_events

val probe_version : string -> int
(** Read just the header and report the container version byte, so
    callers can pick the v1 ({!Trace_reader}) or v2
    ({!Trace_format_v2}) decode path: 1 is v1, 2 and up is v2, where
    the byte is the block revision ({!Trace_format_v2.version}).
    @raise Dgrace_resilience.Error.E on a bad magic or missing
    version. *)

val read : ?path:string -> in_channel -> Event.t Seq.t
(** Lazy sequence of events; consumes the channel as it is forced.
    [path] is carried into error values for context.
    @raise Dgrace_resilience.Error.E on a bad header or malformed
    event. *)

val fold_file : string -> ('a -> Event.t -> 'a) -> 'a -> 'a
(** [fold_file path f init] opens, folds over every event, and closes
    the file (also on exceptions). *)

val read_file : string -> Event.t list
(** Whole trace in memory — convenient for tests on small traces. *)

(** {1 Resync mode} *)

type recovery = {
  events : int;  (** events successfully decoded *)
  dropped_bytes : int;  (** bytes skipped while resynchronising *)
  gaps : int;  (** distinct skip episodes *)
  errors : Dgrace_resilience.Error.t list;
      (** the corruption hit at each gap, in file order *)
}

val clean : recovery
(** The no-corruption report ([gaps = 0]). *)

val read_file_resync : string -> Event.t list * recovery
(** Like {!read_file} but never raises on corrupt input: decodable
    events around each corrupt region are still returned, and the
    report accounts for every byte skipped.  A trace with a bad header
    yields no events and one gap spanning the whole file. *)
