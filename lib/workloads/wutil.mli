(** Building blocks shared by the workload programs. *)

val rng : int -> Random.State.t
(** Deterministic PRNG for a workload seed. *)

val spawn_workers : int -> (int -> unit) -> unit
(** [spawn_workers n body] spawns [n] threads running [body i] and
    joins them all (fork/join happens-before edges). *)

val touch_words : ?loc:string -> write:bool -> int -> int -> unit
(** [touch_words ~write addr bytes] reads or writes the range as a
    sequence of word (4-byte) accesses — the common C loop over an
    array. *)

(** A single-producer single-consumer handoff channel built from
    simulated shared slots and event flags: the put of item [i]
    happens-before the take of item [i].  This is the queue idiom of
    the pipeline benchmarks (ferret, dedup, pbzip2, ffmpeg). *)
module Handoff : sig
  type t

  val create : int -> t
  (** [create n] — channel for items [0 .. n-1]; allocates the slot
      array in simulated static memory. *)

  val put : t -> int -> value:int -> unit
  (** Publish item [i] carrying [value] (typically a buffer address):
      writes the slot, then signals. *)

  val take : t -> int -> int
  (** Wait for item [i] and read its value.  A take with no put
      blocks: the run ends in [Sim.Deadlock] once nothing else can
      run. *)
end

(** A counter in simulated shared memory. *)
module Counter : sig
  type t

  val create : ?loc:string -> unit -> t

  val incr_racy : t -> unit
  (** Read-modify-write with no protection — one seeded racy word. *)
end
