(** Hash tables keyed by [int], for the clock machinery's hot lookups
    (lock clocks, interned-snapshot buckets).

    A monomorphic open-addressing table: keys and values sit side by
    side in one flat array, probed linearly from an inline
    Fibonacci hash with an integer compare.  A binding costs no
    heap block of its own, and {!find_or} misses without raising or
    allocating.  Every [int] is a valid key — lock ids come straight
    from untrusted traces, so no key value is reserved.

    A key has at most one binding ({!replace} overwrites); the
    [Hashtbl] operations that only make sense with shadowed bindings
    ([add], [find_all]) and the [Seq] conversions are not offered.
    Iteration order is unspecified. *)

type key = int
type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized for about [n] bindings (it grows
    on demand). *)

val length : 'a t -> int

val find_or : 'a t -> key -> default:'a -> 'a
(** The binding of the key, or [default] — the hot-path lookup. *)

val find : 'a t -> key -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : 'a t -> key -> 'a option
val mem : 'a t -> key -> bool

val replace : 'a t -> key -> 'a -> unit
(** Bind the key, replacing its binding if it has one. *)

val remove : 'a t -> key -> unit
(** Unbind the key (no-op when unbound). *)

val iter : (key -> 'a -> unit) -> 'a t -> unit

val clear : 'a t -> unit
(** Remove every binding, keeping the current capacity. *)

val reset : 'a t -> unit
(** Remove every binding and shrink back to the initial capacity. *)

val copy : 'a t -> 'a t

val longest_probe : 'a t -> int
(** The most slots a lookup of a bound key probes (0 when empty): a
    diagnostic for the hash's spread, not a hot-path call. *)
