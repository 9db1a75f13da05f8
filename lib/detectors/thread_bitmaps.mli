(** The per-thread same-epoch bitmaps of the FastTrack family
    (§IV.A): one {!Dgrace_shadow.Epoch_bitmap.t} per thread id, created
    on the thread's first access, in a plain array grown on demand. *)

open Dgrace_shadow

type t

val create : account:Accounting.t -> t
(** No bitmaps yet; each one created later accounts its bytes to
    [account]. *)

val get : t -> int -> Epoch_bitmap.t
(** The thread's bitmap, created on first use.
    @raise Invalid_argument on a negative thread id. *)

val shed : t -> int
(** Reset and drop every bitmap, returning the bytes they held; the
    next {!get} of a thread starts it a fresh one. *)

val chunk_counts : t -> int * int
(** Chunks allocated fresh and chunks recycled, summed over the live
    bitmaps ({!Epoch_bitmap.stats}). *)
