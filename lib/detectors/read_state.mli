(** FastTrack's adaptive read representation.

    Writes to a location are totally ordered until the first race, so a
    single epoch suffices for the write history.  Reads are not: after
    a read-shared pattern (several threads reading without ordering)
    the full vector clock is needed.  This module is the adaptive
    no-reads / epoch / vector-clock representation together with the
    FastTrack read rules (§II.C of the paper, rules READ EXCLUSIVE /
    READ SHARE / READ SHARED of the FastTrack paper).

    A read state is one word.  The no-reads and epoch states are
    immediates — recording an ordered read allocates nothing and
    checking it is a compare on the word itself — and only the
    read-shared state points to a block: an interned
    {!Dgrace_vclock.Vc_intern} snapshot.  A read-shared value owns one
    reference and must be released (via {!release}, or implicitly by
    {!update} replacing it) when dropped. *)

open Dgrace_vclock

type t
(** One of: no reads (never read, or reset by a dominating write); all
    reads ordered, the last one at an epoch; read-shared, the
    per-thread last read clocks as an interned snapshot. *)

val empty : t
(** The no-reads state. *)

val is_empty : t -> bool
(** The no-reads state? *)

val is_vc : t -> bool
(** The read-shared (snapshot) state? *)

val of_epoch : Epoch.t -> t
(** The all-reads-ordered state whose last read is this epoch. *)

val epoch : t -> Epoch.t
(** The last read's epoch of an epoch state; {!Epoch.none} for
    {!empty}.  @raise Invalid_argument on a read-shared state. *)

val snap : t -> Vc_intern.snap
(** The snapshot of a read-shared state, borrowed: the state keeps its
    reference.  @raise Invalid_argument on any other state. *)

val equal : t -> t -> bool
(** Structural equality — the "same vector clock" test used by sharing
    decisions. *)

val leq : t -> Vector_clock.t -> bool
(** Do all recorded reads happen before the given thread clock?  The
    read-write race check is the negation. *)

val same_epoch : t -> Epoch.t -> bool
(** Is the last recorded read exactly this epoch (FastTrack's O(1)
    same-epoch read fast path)? *)

val update : intern:Vc_intern.t -> t -> tid:int -> tvc:Vector_clock.t -> t
(** Record a read by [tid] whose thread clock is [tvc]: stays an epoch
    when the previous reads are ordered before this one, inflates to an
    interned snapshot otherwise.  Any previous snapshot reference is
    consumed; the caller owns the returned one.  Allocates nothing
    unless the result is a snapshot not already interned. *)

val retain : t -> t
(** The same state, with one more reference taken on its snapshot when
    read-shared — an O(1) share for a second owner, such as the other
    half of a split cell. *)

val release : t -> unit
(** Drop the snapshot reference held by a read-shared state (no-op
    otherwise).  Callers must do this before discarding a read state. *)

val bytes : t -> int
(** Storage attributed to this representation beyond the cell record
    (0 unless read-shared, the snapshot footprint then).  Note that
    snapshots are shared: summing [bytes] over cells can exceed the
    arena's live bytes. *)

val pp : Format.formatter -> t -> unit
