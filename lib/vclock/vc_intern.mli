(** Hash-consed arena of immutable vector-clock snapshots.

    The paper's thesis is that neighbouring locations usually carry the
    same vector clock; the arena exploits the same redundancy in time:
    every place a detector "captures" a clock (read-shared inflation,
    DRD segment clocks, Inspector history entries, cell splits) interns
    it here and holds an O(1) refcounted share instead of a deep copy.

    A snapshot stores the clock's live prefix as a trimmed flat
    [int array] keyed by an FNV-style content hash.  Interning an
    unchanged mutable clock is memoised through the clock's generation
    stamp and skips even the rehash.  Payload arrays of dead snapshots
    are recycled through a per-length free list, so the steady-state
    capture path allocates nothing.

    Arenas are per-detector; they are not thread-safe.  See doc/vclock.md. *)

type t
(** An arena. *)

type snap
(** An immutable, refcounted snapshot owned by one arena.  A snapshot
    handed out by {!intern}/{!retain}/{!with_component} is owned by the
    caller and must be balanced by exactly one {!release}. *)

type stats = {
  s_live : int;  (** snapshots currently alive *)
  s_peak_live : int;
  s_bytes : int;  (** bytes held by live snapshots *)
  s_peak_bytes : int;
  s_pool_bytes : int;  (** bytes parked in the payload free list *)
  s_interns : int;  (** total {!intern} calls *)
  s_hits : int;  (** interns satisfied by an existing snapshot *)
  s_memo_hits : int;  (** hits that skipped hashing via the generation memo *)
  s_retains : int;  (** explicit O(1) shares *)
  s_releases : int;
  s_payload_allocs : int;
  s_payload_recycles : int;
}

val create : ?hash_consing:bool -> ?on_bytes:(int -> unit) -> unit -> t
(** A fresh arena.  Every detector uses the default, hash-consed arena.
    [hash_consing:false] builds the contrast arena that only the
    arena's QCheck laws and [bench/vclock_bench.ml] use:
    no deduplication and no generation memo — every intern
    materialises a private snapshot, the deep-copy behaviour — under
    the same ownership protocol.
    [on_bytes] is called with the signed byte delta whenever snapshot
    memory is allocated or freed, letting the caller mirror the arena
    into its {!Dgrace_shadow.Accounting} axes without a dependency
    cycle. *)

val intern : t -> Vector_clock.t -> snap
(** [intern t vc] returns a snapshot equal to [vc]'s current value,
    transferring one reference to the caller.  Re-interning a clock
    whose content is already live is O(1) via the generation memo;
    otherwise the content hash is looked up and only a genuinely new
    value allocates. *)

val retain : snap -> unit
(** Take one more reference — the O(1) replacement for a deep copy.
    @raise Invalid_argument if the snapshot was already freed. *)

val release : snap -> unit
(** Drop one reference; the last release returns the payload to the
    free list.  @raise Invalid_argument on refcount underflow. *)

val with_component : snap -> tid:int -> clock:int -> snap
(** Copy-on-write update: a snapshot equal to [s] except component
    [tid] holds [clock].  If the component already holds [clock] this
    is just {!retain}.  The caller owns the result and still owns
    [s]. *)

val refcount : snap -> int

val scratch : t -> Vector_clock.t
(** The arena's pooled staging clock: write a value into it (after
    {!Vector_clock.reset}) and {!intern} it — the allocation-free way
    to build snapshots such as the [Ep -> Vc] read inflation.  The
    scratch clock is shared; do not hold it across detector
    re-entry. *)

(** {2 Snapshot observations} — agree with the {!Vector_clock}
    operation of the same name on the interned value. *)

val get : snap -> int -> int
val max_tid_set : snap -> int
val equal : snap -> snap -> bool
val leq : snap -> snap -> bool

val leq_clock : snap -> Vector_clock.t -> bool
(** [leq_clock s vc] is [Vector_clock.leq (to_clock s) vc] without the
    copy — the common "is this captured clock ordered before the
    current thread?" race test. *)

val fold : (int -> int -> 'a -> 'a) -> snap -> 'a -> 'a
(** Over non-zero components in increasing tid order, matching
    {!Vector_clock.fold}. *)

val load_into : snap -> Vector_clock.t -> unit
(** Materialise the snapshot into a mutable clock. *)

val to_clock : snap -> Vector_clock.t
(** A fresh deep copy (tests and diagnostics; not on hot paths). *)

val stats : t -> stats

val snap_bytes : snap -> int
(** Accounted heap footprint of one snapshot (record + payload). *)
