(** Race reports and the first-race-per-location collection discipline.

    Like DJIT+, DRD and the paper's detector, we report only the {e
    first} race for each memory location: once an address is in the
    [Race] state no further reports are produced for it.  A report
    carries both conflicting accesses — the current one with full
    context, the previous one as recorded in the shadow state. *)

type endpoint = {
  tid : int;
  kind : Event.access_kind;
  clock : int;  (** the thread's logical clock at the access, when known (0 otherwise) *)
  loc : string;  (** source-location label ("" when unknown) *)
}
(** One side of a racing pair. *)

type t = {
  addr : int;  (** first racy byte address *)
  size : int;  (** detection-unit size at which the race was caught *)
  current : endpoint;  (** the access that uncovered the race *)
  previous : endpoint;  (** the recorded conflicting access *)
  granule_lo : int;
  granule_hi : int;
      (** the shadow granule [\[granule_lo, granule_hi)] covering [addr];
          wider than one byte when a shared vector clock caught the race
          (this is how the dynamic detector reports the extra x264
          locations of Table 1) *)
}

val make :
  addr:int -> size:int -> current:endpoint -> previous:endpoint ->
  ?granule:int * int -> unit -> t
(** Build a report; [granule] defaults to [(addr, addr + size)]. *)

val is_write_write : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Accumulates reports, deduplicating to the first race per byte
    address.  Detectors push every race they see; the collector keeps
    the paper's "first race for each memory location" semantics. *)
module Collector : sig
  type report = t
  type t

  val create : ?suppression:Suppression.t -> unit -> t

  val add : t -> report -> bool
  (** [add c r] records [r] unless a race was already recorded for
      [r.addr] or [r] is suppressed; returns [true] iff recorded. *)

  val count : t -> int
  (** Number of recorded (distinct-location, unsuppressed) races. *)

  val suppressed : t -> int
  (** Number of reports dropped by suppression rules. *)

  val races : t -> report list
  (** Recorded races in detection order. *)

  val set_tag : t -> int -> unit
  (** [set_tag c tag] stamps [tag] onto every race recorded until the
      next call.  The engine sets it to the event's stream position
      before dispatching, so batched and per-event replays attribute
      races to identical offsets.  Default [-1]. *)

  val tagged_races : t -> (int * report) list
  (** Recorded races with their tags, in detection order. *)

  val racy_addrs : t -> int list
  (** Sorted distinct racy byte addresses. *)
end
