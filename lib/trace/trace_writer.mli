(** Records an event stream to a channel in the {!Trace_format}
    encoding.  Typical use: pass {!sink} as the simulator's event sink,
    then {!close}. *)

open Dgrace_events

type t

val create : out_channel -> t
(** Writes the header immediately. *)

val write : t -> Event.t -> unit

val sink : t -> Event.t -> unit
(** Same as {!write}, shaped for [Sim.run ~sink]. *)

val events_written : t -> int

val close : t -> unit
(** Flush and close the underlying channel. *)

val to_file : string -> ((Event.t -> unit) -> 'a) -> 'a * int
(** [to_file path f] opens [path], runs [f sink], closes, and returns
    [f]'s result with the number of events written.  If [f] raises, the
    file is closed and removed before the exception propagates, so a
    failed recording never leaves a valid-looking prefix behind. *)
