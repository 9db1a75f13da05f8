(** A minimal JSON tree, printer and parser.

    The observability exports must be machine-readable without adding a
    dependency the container does not bake in, so this module carries
    just enough JSON: a value type, a deterministic printer (object
    fields stay in insertion order), and a strict recursive-descent
    parser used by [racedet metrics-info] and the round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; the default is indented, [~minify:true] is single-line. *)

val add_string : Buffer.t -> string -> unit
(** Append a quoted, escaped JSON string literal. *)

val add_int : Buffer.t -> int -> unit
(** Append an integer literal.  With {!add_string}, for writers that
    print a large document straight into a buffer instead of building
    a {!t}. *)

val to_file : string -> t -> unit
(** Write [to_string] plus a trailing newline. *)

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document.  Numbers without [.],
    [e] or [E] become [Int]; everything else numeric becomes [Float]. *)

val parse_file : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing field or non-object. *)

val equal : t -> t -> bool
(** Structural equality ([Int 1] and [Float 1.] are distinct). *)
