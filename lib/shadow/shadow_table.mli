(** The shadow-memory indexing structure of the paper's Figure 4.

    A flat two-level page directory maps addresses to leaf pages
    covering a [block]-byte aligned region (default m = 128 bytes):
    the root is a dense array of rows anchored at the first address
    touched, each row an array of page pointers, so the common lookup
    is two array indexes and no hashing (far-outlier rows fall back
    to a small spill table).  Each page holds an {e indexing array}
    of pointers to shadow values: it starts with [m/4] slots (word
    granularity, the common access pattern) and, in adaptive mode, is
    expanded to [m] slots (byte granularity) the first time a
    sub-word access touches the region.  The same structure serves
    the byte- and word-granularity detectors with a fixed slot size.
    Unoccupied slots hold a private sentinel, so occupied slots store
    the value unboxed; released pages are recycled through a free
    list.  See doc/shadow.md.

    Values are arbitrary; the dynamic-granularity detector stores
    shared cell records, so several slots (possibly in different
    pages) may point to one value.  All leaf-page size changes are
    reported to an {!Accounting} sink; directory overhead is
    bookkeeping and is reported through {!stats} instead. *)

type mode =
  | Fixed_bytes of int
      (** every page uses slots of exactly this many bytes (1 for the
          byte detector, 4 for the word detector) *)
  | Adaptive
      (** pages start at word slots and expand to byte slots when a
          sub-word access — smaller than a word or not word-aligned —
          shows up (paper §IV.B) *)

type 'a t

val create : ?block:int -> mode:mode -> ?account:Accounting.t -> unit -> 'a t
(** [block] must be a power of two and a multiple of the slot size
    (default 128). *)

val mode : 'a t -> mode
val block : 'a t -> int

val ensure_granularity : 'a t -> addr:int -> size:int -> unit
(** In adaptive mode, switch the pages covering the access to byte
    slots when the access is {e sub-word} — smaller than a word or not
    word-aligned — creating empty byte-granularity pages on demand.
    Call at the start of every access so that the slot bounds the
    detector sees are stable for the whole access.  No-op for accesses
    that cover whole aligned words, and in fixed mode. *)

val slot_bounds : 'a t -> int -> int * int
(** [slot_bounds t addr] is the address range [\[lo, hi)] of the slot
    that contains [addr], under the page's current granularity (or the
    granularity a fresh page would get — byte slots for any
    non-word-aligned address, the same predicate
    {!ensure_granularity} uses). *)

(** {1 Lookups}

    Lookups never allocate.  A caller names its own [absent] sentinel —
    a value of the stored type that it never stores, compared
    physically ([==]) — and gets it back wherever a slot is empty.
    The group walk and the neighbour scans also report slot bounds;
    those are stashed in the table and read back with {!found_lo} and
    {!found_hi}, which stay valid until the next {!group},
    {!prev_neighbor} or {!next_neighbor} call on the same table (other
    operations, {!find} included, leave them alone). *)

val find : 'a t -> int -> absent:'a -> 'a
(** Value of the slot containing the address, or [absent]. *)

val set : 'a t -> int -> 'a -> unit
(** Point the slot containing the address at the value, creating the
    page on demand. *)

val set_range : 'a t -> lo:int -> hi:int -> 'a -> unit
(** Point the slots of [\[lo, hi)] at the value — how a vector clock
    is shared across a neighbourhood.  In adaptive mode the stamp is
    {e byte-exact}: a boundary falling inside a word slot refines
    that page to byte slots first, so no byte outside the range is
    touched.  In fixed mode the slot is the atomic unit and the stamp
    covers every slot intersecting the range (boundaries widen
    outward). *)

val remove_range : 'a t -> lo:int -> hi:int -> unit
(** Clear the range (used on [free]); pages left empty are dropped,
    their index bytes released and their arrays recycled.  Boundary
    handling follows the {!set_range} contract: byte-exact in
    adaptive mode (an occupied word slot cut by a boundary is refined
    first; bytes outside the range keep their value), widening to
    whole slots in fixed mode. *)

val prev_neighbor : 'a t -> int -> absent:'a -> 'a
(** [prev_neighbor t addr ~absent] is the value of the nearest
    non-empty slot strictly before the slot of [addr], looking through
    exactly [scan_limit = 4] slots, crossing page boundaries as needed
    (the "nearest predecessor that has a valid vector clock" of
    §III.A, bounded to the indexing neighbourhood); [absent] when
    there is none.  On a hit the slot's bounds are stashed.  Absent
    pages count as empty slots at the initial width, so a freed
    neighbour and a never-touched one answer identically. *)

val next_neighbor : 'a t -> int -> absent:'a -> 'a
(** Symmetric successor search. *)

val group : 'a t -> int -> hi:int -> absent:'a -> 'a
(** [group t addr ~hi ~absent] walks the maximal run of consecutive
    slots starting at [addr]'s slot that all point to the same value
    (physical equality) or are all empty, clipped to the first slot
    boundary at or after [hi].  It returns that value ([absent] for an
    empty run) and stashes the run's bounds [\[glo, ghi)].  This is
    the access-walk primitive of the dynamic-granularity detector: one
    page lookup per block instead of one per slot. *)

val found_lo : 'a t -> int
val found_hi : 'a t -> int
(** Bounds [\[lo, hi)] stashed by the last {!group} (always) or
    neighbour scan (on a hit) on this table. *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f lo hi v] to every non-empty slot. *)

val iter_range : (int -> int -> 'a -> unit) -> 'a t -> lo:int -> hi:int -> unit
(** [iter_range f t ~lo ~hi] applies [f slot_lo slot_hi v] to every
    non-empty slot intersecting [\[lo, hi)], in address order.  Slot
    bounds are the full slot, which may extend beyond the range. *)

val entry_count : 'a t -> int
(** Number of live leaf pages. *)

val bytes : 'a t -> int
(** Current index-structure footprint in bytes: live leaf pages only,
    as reported to the accounting sink.  Directory and free-list
    overhead is in {!stats}. *)

type stats = {
  pages_live : int;  (** live leaf pages (= {!entry_count}) *)
  pages_pooled : int;  (** slot arrays parked in the free list *)
  page_allocs : int;  (** slot arrays allocated fresh *)
  page_recycles : int;  (** slot arrays served from the free list *)
  expansions : int;  (** word-slot pages rebuilt at byte slots *)
  lookups : int;  (** page lookups *)
  mru_hits : int;  (** lookups answered by the one-entry MRU cache *)
  dir_bytes : int;
      (** root + row + spill overhead, not counted in {!bytes} *)
}

val stats : 'a t -> stats
