(** Access locations as integer ids.

    An append-only table between location labels (the [loc] strings of
    {!Event.Access}) and dense ids [0 .. length - 1].  Id 0 is [""] in
    every table, so a row or a cell with no location holds 0 whatever
    table it resolves through.

    Batches, decoders and the FastTrack-family detectors carry ids and
    resolve a string only when a race report is built, so no store of
    a location is a pointer store (doc/trace.md, "Locations").  One run
    resolves every id through one table: the table of the batches the
    detector is given, or the detector's own when events arrive one at
    a time ({!adopt}).

    A table is not synchronised: only one domain interns into it.
    Other domains may {!name} ids they were handed after the ids were
    interned (a decoder domain's batches, read by a detector
    domain). *)

type t

val create : unit -> t
(** A table holding only [""] (id 0). *)

val empty : int
(** The id of [""]: 0. *)

val intern : t -> string -> int
(** The id of a label, added as the next id if the table lacks it.  A
    small memo keyed by the string's pointer answers before the hash:
    an event stream repeats a few label constants, so most calls
    compare one pointer. *)

val intern_once : t -> string -> int
(** {!intern} without the memo, for a string whose pointer will not be
    interned again (a decoder's freshly read label): the hash only. *)

val name : t -> int -> string
(** The label of an id.
    @raise Invalid_argument if [id] is not in the table. *)

val length : t -> int
(** Number of ids, [""] included (so a fresh table has length 1). *)

val adopt : t -> own:t -> t
(** [adopt t ~own] is the table a consumer that has so far resolved
    through [own] resolves a batch from [t] through: [t] itself when
    [t == own] or [own] holds nothing but [""] (no id the consumer
    kept can mean anything else).
    @raise Invalid_argument when [t] is a foreign table: [own] already
    named another location. *)
