(** Struct-of-arrays event batches for the batched detector fast path.

    A batch holds up to [capacity] decoded events as parallel int
    columns plus a string column of location pointers, so decoders can
    fill it and detectors can walk it with no per-event allocation.
    See doc/trace.md for the column layout and the [process_batch]
    contract.

    {b Recycling contract.}  Every producer in this codebase — the v2
    stream decoder, the pipeline ring, the serve session — reuses a small pool of batches: a batch handed to a
    consumer callback is {e invalid the moment the callback returns}
    (it will be cleared and refilled with unrelated rows).  A consumer
    that needs rows past the callback must copy them out — either with
    {!copy_row} into a batch it owns, or by materialising {!event}s.
    Retaining the batch itself, its arrays, or row indices into it is
    a bug even when it appears to work on a single-buffer producer. *)

(** Default (and framing) batch capacity: 4096 events. *)
val default_capacity : int

(** Kind codes in the [kind] column — numerically identical to the
    trace tags ([Trace_format.tag_*]). *)

val code_read : int
val code_write : int
val code_acquire : int
val code_release : int
val code_fork : int
val code_join : int
val code_alloc : int
val code_free : int
val code_exit : int

(** Wire codes for {!Event.sync_kind} (0=lock 1=barrier 2=flag
    3=atomic), shared with the trace formats. *)

val sync_code : Event.sync_kind -> int
val sync_of_code : int -> Event.sync_kind

type t = {
  mutable len : int;  (** number of valid rows *)
  kind : int array;  (** kind code per row *)
  a : int array;  (** tid / parent *)
  b : int array;  (** addr / lock / child *)
  c : int array;  (** size / sync code / 0 *)
  loc : string array;  (** access location, [""] otherwise *)
  off : int array;  (** absolute source offset, [-1] if unknown *)
}

val create : ?capacity:int -> unit -> t
val capacity : t -> int
val length : t -> int
val is_full : t -> bool

(** Reset to empty (also drops location pointers so a parked batch
    doesn't pin strings). *)
val clear : t -> unit

(** Append one decoded event; raises [Invalid_argument] when full.
    [off] is the record's absolute offset in the source stream. *)
val push : t -> ?off:int -> Event.t -> unit

(** [copy_row ~src i ~dst] appends row [i] of [src] to [dst] — six
    columnar stores, no allocation.  Raises [Invalid_argument] when
    [dst] is full.  This is how a consumer keeps rows beyond the
    producer's callback (see the recycling contract above). *)
val copy_row : src:t -> int -> dst:t -> unit

(** Reconstruct the event at a row — the slow path for rare sync
    events inside a batched detector and for fallback loops. *)
val event : t -> int -> Event.t

val iter_events : (Event.t -> unit) -> t -> unit

(** Build a single batch from a list (grows capacity to fit); test and
    convenience helper, not a hot path. *)
val of_events : ?capacity:int -> Event.t list -> t
