(** Length-prefixed framing for the serve wire protocol.

    One frame is [4-byte big-endian payload length | 1 type byte |
    payload].  Requests use upper-case type bytes, responses
    lower-case; payloads are minified JSON except {!Feed_batch}/{!Race},
    which carry one v2 block body / a rendered report line.  See
    [doc/serve.md] for the full protocol. *)

module Json = Dgrace_obs.Json

type frame =
  | Open of Json.t
      (** open a session: [{"spec": name,
          "max_events"/"deadline_s"/"max_shadow_bytes": budget}] *)
  | Feed_batch of string
      (** one v2 block body ({!Dgrace_trace.Trace_format_v2.encode_body}),
          the only feed frame — the server decodes it straight into a
          struct-of-arrays {!Dgrace_events.Batch.t} and delivers it
          through the detector's batch fast path *)
  | Finish  (** finalize the session and request its summary *)
  | Status  (** request the server status document *)
  | Opened of Json.t  (** [{"session": id}] *)
  | Ack of Json.t  (** per-BATCH receipt: [{"events": n, "races": n}] *)
  | Race of string  (** one incremental race report line *)
  | Summary of Json.t  (** the finalized run envelope *)
  | Err of Json.t
      (** [{"code": exit-code, "error": {...}}] — the structured
          {!Dgrace_resilience.Error.t} with its documented code *)
  | Overloaded of Json.t  (** backpressure: [{"retry_after_s": s}] *)
  | Status_doc of Json.t

val default_max_frame_bytes : int
(** 16 MiB — the reader rejects longer frames as a protocol error. *)

val ignore_sigpipe : unit -> unit
(** Make a vanished peer an [EPIPE] on the write instead of a fatal
    SIGPIPE.  {!Server.start} and {!Client.connect} call it. *)

val type_byte : frame -> char
val encode : frame -> string

val write : Unix.file_descr -> frame -> unit
(** Render and write the whole frame as one byte run.  Callers
    serialise concurrent writers (one mutex per connection). *)

val read :
  ?max_frame_bytes:int ->
  Unix.file_descr ->
  (frame option, string) result
(** [Ok None] on clean end-of-stream, [Ok (Some f)] on a well-formed
    frame, [Error reason] on garbage, over-size lengths, or a peer
    that vanished mid-frame. *)
