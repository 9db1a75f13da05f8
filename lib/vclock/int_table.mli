(** Hash tables keyed by [int], for the clock machinery's hot lookups
    (lock clocks, interned-snapshot buckets, payload pools).

    The generic [Hashtbl] hashes through [caml_hash] and compares keys
    with [compare_val], both C calls; this instance hashes with an
    inline multiplicative mix and compares with [Int.equal].  Use
    [find] with a [Not_found] handler on hot paths: it allocates
    nothing, unlike [find_opt]. *)

include Hashtbl.S with type key = int
