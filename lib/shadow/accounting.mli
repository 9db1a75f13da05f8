(** Explicit memory accounting for the detector data structures.

    The paper's Table 2 decomposes detector memory into three factors —
    hash/index structures, vector clocks, and same-epoch bitmaps — and
    Table 3 counts live vector clocks and the average number of
    locations sharing one.  A garbage-collected runtime can't reproduce
    those numbers from the process RSS, so every shadow structure
    reports its own size changes here, "measured based on object size"
    exactly as the paper does. *)

type t

val create : unit -> t

(** {1 Byte deltas (may be negative)} *)

val add_hash : t -> int -> unit
(** Index/hash structure bytes (Table 2 "Hash" column). *)

val add_vc : t -> int -> unit
(** Vector-clock storage bytes (Table 2 "Vector clock" column). *)

val add_bitmap : t -> int -> unit
(** Same-epoch bitmap bytes (Table 2 "Bitmap" column). *)

val add_interned : t -> int -> unit
(** Interned vector-clock snapshot bytes (the {!Dgrace_vclock.Vc_intern}
    arena).  This is an annotation of the vector-clock factor — callers
    feeding an arena's byte deltas here are expected to also feed them
    to {!add_vc} — so it is {e not} part of {!current_bytes}. *)

(** {1 Vector-clock population (Table 3)} *)

val vc_created : t -> unit
val vc_freed : t -> unit

val bind_locations : t -> int -> unit
(** [bind_locations t n]: [n] byte-locations were bound to some vector
    clock (newly created or joined by sharing); feeds the average
    sharing count. *)

(** {1 Readouts} *)

val hash_bytes : t -> int
val vc_bytes : t -> int
val bitmap_bytes : t -> int

val current_bytes : t -> int
(** Sum of the three factors right now. *)

val peak_bytes : t -> int
(** Peak of {!current_bytes} over the run. *)

val peak_hash_bytes : t -> int
val peak_vc_bytes : t -> int
val peak_bitmap_bytes : t -> int
(** Per-factor peaks (each factor's own maximum; they need not occur
    simultaneously, mirroring the paper's per-column maxima). *)

val peak_interned_bytes : t -> int
(** Live/peak bytes of deduplicated clock snapshots (subset of the
    vector-clock factor). *)

val live_vcs : t -> int
val peak_vcs : t -> int
(** Maximum number of vector clocks simultaneously present
    (Table 3 "Max. # of vector clocks"). *)

val total_vcs_created : t -> int

val avg_sharing : t -> float
(** Cumulative locations-bound / clocks-created — the Table 3 "Avg.
    sharing count" (1.0 when every location has a private clock). *)

val reset : t -> unit
