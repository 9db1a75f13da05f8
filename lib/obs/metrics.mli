(** A lightweight metrics registry: named counters, gauges and
    log-scale histograms.

    Detectors register their instruments once at construction and keep
    direct references; every hot-path update is then a single mutable
    integer store — no lookup, no allocation.  The registry exists so
    the engine, the CLI and the export layer can enumerate whatever a
    detector chose to expose without knowing the detector. *)

type t
(** A registry. *)

type counter
(** Monotonically increasing integer. *)

type gauge
(** Integer that can move both ways (e.g. live bytes). *)

type histogram
(** Power-of-two bucketed distribution of non-negative integers:
    bucket 0 holds values [<= 0] and [1]; bucket [i >= 1] holds
    [2^i .. 2^(i+1) - 1]. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create by name; the same name always yields the same
    instrument, so re-registering is cheap and idempotent. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Hot-path updates (no allocation)} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on negative increments. *)

val set : gauge -> int -> unit
val observe : histogram -> int -> unit

(** {1 Readouts} *)

val value : counter -> int
val gauge_value : gauge -> int

val find_counter : t -> string -> int option
(** Value by name, [None] when never registered. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val gauges : t -> (string * int) list

val histogram_count : histogram -> int
val histogram_sum : histogram -> int
val histogram_max : histogram -> int

val histogram_buckets : histogram -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)] with [lo]/[hi] the inclusive
    value range the bucket covers. *)

val to_json : t -> Json.t
(** [{ "counters": {..}, "gauges": {..}, "histograms": {..} }]; fields
    sorted by name so output is deterministic. *)
