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

val addr_bits : int
(** Addresses are below [2^addr_bits] (61). *)

val max_addr : int
(** [2^addr_bits - 1]: with a size of at most [max_access_size], an
    access's end and its pages' bounds stay far from [max_int]. *)

val check_loc : string -> unit
(** What both writers do before recording a location: refuse one
    longer than [max_loc_len], which the readers would reject.
    @raise Dgrace_resilience.Error.E with [Invalid_input]. *)

val check_event : negative_locks:bool -> Dgrace_events.Event.t -> unit
(** What both writers do before recording an event: refuse one with a
    field outside the bounds above (a tid outside [0 .. max_tid], an
    address outside [0 .. max_addr], a size outside [0 .. max_access_size], an
    over-long location), which the readers would reject.  A negative
    lock id is refused unless [negative_locks] (v2 stores any lock id;
    v1 stores them unsigned).
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

val write_uvarint : Buffer.t -> int -> unit
(** LEB128 of all 63 bits of the int read as unsigned: a negative
    value takes nine bytes.  Equal to {!write_varint} on non-negative
    input. *)

val read_varint : in_channel -> int
(** @raise End_of_file at end of stream.
    @raise Corrupt on an over-long or overflowing encoding. *)

exception Corrupt of string
(** Raised by the low-level decoding primitives on malformed input.
    {!Trace_reader} converts these to
    [Dgrace_resilience.Error.Corrupt_trace] values carrying the byte
    offset and file context; user code should match on those. *)
