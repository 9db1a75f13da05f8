(** Per-thread bitmap of addresses already checked in the current epoch.

    DJIT+/FastTrack only need to analyse the {e first} read and the
    first write of each location per epoch.  Looking the location up in
    the global shadow structure to discover that is itself expensive,
    so the paper keeps a thread-local bitmap (§IV.A): an access marks
    its address range; subsequent accesses test the bit and return
    immediately; the bitmap is cleared at every epoch boundary of the
    thread (lock release, fork, join).

    Reads and writes are tracked in separate planes, since the first
    read and first write of an epoch must each be analysed. *)

type t

val create : ?block:int -> ?account:Accounting.t -> unit -> t
(** [block] is the bitmap chunk coverage in byte-addresses (default
    1024; must be a power of two). *)

val mark : t -> write:bool -> lo:int -> hi:int -> unit
(** Mark every address in [\[lo, hi)] as already analysed this epoch in
    the given plane ([write:true] for stores, [write:false] for loads).
    Note a store does {e not} mark the read plane: the first read after
    a write in the same epoch must still be analysed. *)

val test : t -> write:bool -> int -> bool
(** Has this address already been analysed (in the given plane) during
    the current epoch? *)

val test_range : t -> write:bool -> lo:int -> hi:int -> bool
(** [test a] for every [a] in [\[lo, hi\]] ([hi] inclusive) — the
    whole-access same-epoch probe on the detectors' fast path.  One
    chunk lookup when the range lies in one chunk, then one mask test
    per bitmap byte (4 addresses). *)

val reset : t -> unit
(** Epoch boundary: clear all marks and release chunk storage.  The
    chunks are detached into a small zeroed pool and the directory is
    kept, so the next epoch re-marks without re-allocating; the
    accounted footprint still returns to zero. *)

val bytes : t -> int
(** Current bitmap footprint in bytes (live chunks only). *)

type stats = {
  chunks_live : int;
  chunks_pooled : int;  (** zeroed chunks parked for reuse *)
  chunk_allocs : int;  (** chunks allocated fresh *)
  chunk_recycles : int;  (** chunks served from the pool *)
  resets : int;  (** epoch boundaries seen *)
  dir_bytes : int;  (** directory overhead, not counted in {!bytes} *)
}

val stats : t -> stats
