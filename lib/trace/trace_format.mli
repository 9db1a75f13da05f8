(** The on-disk trace encoding shared by the writer and reader.

    A trace file is the magic string ["DGRT"], a version byte, then a
    sequence of events.  Every event is one tag byte followed by its
    fields as unsigned LEB128 varints.  Source-location labels are
    interned: the first occurrence of a label carries its bytes; later
    occurrences are just the table index.  This keeps multi-million
    event traces compact (typically 3–6 bytes per access). *)

val magic : string
val version : int

val header_len : int
(** Bytes of [magic] plus the version byte. *)

(** {1 Field bounds}

    Limits a well-formed trace obeys; the reader rejects records
    outside them as corrupt, so garbage varints can never drive a
    detector into pathological allocation. *)

val max_tid : int
val max_access_size : int
val max_loc_len : int

val check_loc : string -> unit
(** What both writers do before recording a location: refuse one
    longer than [max_loc_len], which the readers would reject.
    @raise Dgrace_resilience.Error.E with [Invalid_input]. *)

(** Event tag bytes. *)

val tag_read : int
val tag_write : int
val tag_acquire : int
val tag_release : int
val tag_fork : int
val tag_join : int
val tag_alloc : int
val tag_free : int
val tag_exit : int

val max_tag : int
(** Largest valid tag byte. *)

val write_varint : Buffer.t -> int -> unit
(** Unsigned LEB128.  @raise Invalid_argument on negative input. *)

val read_varint : in_channel -> int
(** @raise End_of_file at end of stream.
    @raise Corrupt on an over-long or overflowing encoding. *)

exception Corrupt of string
(** Raised by the low-level decoding primitives on malformed input.
    {!Trace_reader} converts these to
    [Dgrace_resilience.Error.Corrupt_trace] values carrying the byte
    offset and file context; user code should match on those. *)
