(** A labeled state-transition counting matrix.

    Built for the dynamic-granularity sharing state machine (paper
    Fig. 2) but generic: states are given as names at creation and
    transitions are recorded by index, so the hot path is one array
    store.  The detector owns the state-name-to-index mapping. *)

type t

val create : states:string array -> t

val record : t -> from_:int -> to_:int -> unit
(** Count one [from_ -> to_] transition.  No bounds check beyond the
    array's own; indices come from the creator's own enumeration. *)

val get : t -> from_:int -> to_:int -> int
val n_states : t -> int
val state_name : t -> int -> string

val total : t -> int
(** All transitions ever recorded. *)

val row_total : t -> int -> int
(** Transitions out of one state. *)

val col_total : t -> int -> int
(** Transitions into one state. *)

val iter : (from_:int -> to_:int -> count:int -> unit) -> t -> unit
(** Visit the non-zero edges in row-major order. *)

val to_json : t -> Json.t
(** [{ "states": [..], "total": n, "edges": [{"from","to","count"}..] }]
    with edges in row-major order (deterministic). *)

val pp : Format.formatter -> t -> unit
(** Non-zero edges, one [from -> to: count] line each. *)
