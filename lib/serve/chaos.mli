(** Wire-level fault injection against a live serve instance.

    The socket-path counterpart of {!Dgrace_core.Fault_harness}: one
    client injects a wire fault (garbage bytes, truncated frame,
    mid-session disconnect) into its own session while a healthy
    client streams the same events concurrently.  The contract checked
    is {e recover-or-declare, per session, with zero blast radius}:
    the faulted session must end poisoned with a structured error, the
    healthy session's races must match a direct {!Dgrace_core.Engine.analyze}
    byte for byte, and the status document must show no leaked shadow
    bytes once every session is terminal. *)

type outcome =
  | Isolated of {
      poisoned : int;  (** sessions the server declared poisoned *)
      healthy_match : bool;  (** healthy races == one-shot baseline *)
      leaked_shadow_bytes : int;  (** live shadow bytes after settle *)
    }
  | Unexpected of string  (** an exception escaped — always a failure *)

val acceptable : outcome -> bool
(** [Isolated] with at least one poisoned session, a matching healthy
    run, and zero leaked bytes. *)

val describe : outcome -> string

val run :
  ?spec:Dgrace_core.Spec.t ->
  ?socket:string ->
  events:Dgrace_events.Event.t list ->
  Client.fault ->
  outcome
(** Start a private server (2 domains) on [socket] (a fresh temp path
    by default), run the victim/healthy pair, classify, and always
    stop the server.  Catches every exception into [Unexpected]. *)
