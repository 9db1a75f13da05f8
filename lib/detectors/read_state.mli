(** FastTrack's adaptive read representation.

    Writes to a location are totally ordered until the first race, so a
    single epoch suffices for the write history.  Reads are not: after
    a read-shared pattern (several threads reading without ordering)
    the full vector clock is needed.  This module is the adaptive
    [None | Epoch | Vc] representation together with the FastTrack read
    rules (§II.C of the paper, rules READ EXCLUSIVE / READ SHARE /
    READ SHARED of the FastTrack paper).

    The read-shared clock is an interned {!Dgrace_vclock.Vc_intern}
    snapshot: a [Vc] value owns one reference and must be released
    (via {!release}, or implicitly by {!update} replacing it) when
    dropped. *)

open Dgrace_vclock

type t =
  | No_reads  (** never read (or reset by a dominating write) *)
  | Ep of Epoch.t  (** all reads ordered; last one was this epoch *)
  | Vc of Vc_intern.snap
      (** read-shared: per-thread last read clocks, interned *)

val is_empty : t -> bool
(** [No_reads]? *)

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
    interned snapshot otherwise.  Any previous [Vc] reference is
    consumed; the caller owns the returned one. *)

val release : t -> unit
(** Drop the snapshot reference held by a [Vc] (no-op otherwise).
    Callers must do this before discarding a read state. *)

val bytes : t -> int
(** Storage attributed to this representation beyond the cell record
    (0 for [No_reads]/[Ep], the snapshot footprint for [Vc]).  Note
    that snapshots are shared: summing [bytes] over cells can exceed
    the arena's live bytes. *)

val pp : Format.formatter -> t -> unit
