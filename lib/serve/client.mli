(** Client side of the serve wire protocol.

    Used by [racedet client], the concurrent differential tests and
    the socket-path fault harness ({!Chaos}).  Requests are
    synchronous: each call sends one frame and reads until the
    matching response, collecting incremental [Race] lines on the way
    (fetch them with {!races}).  [Overloaded] responses are retried
    after the server's hint, resending the identical frame, so
    backpressure never reorders the stream. *)

module Json = Dgrace_obs.Json

type t

type failure =
  | Protocol of string  (** transport or framing trouble *)
  | Server of { code : int; error : Json.t }
      (** a structured [Err] frame: the session's terminal
          {!Dgrace_resilience.Error.t} as JSON plus its exit code *)
  | Gave_up of string  (** backpressure retry budget exhausted *)

val failure_to_string : failure -> string

val connect : socket:string -> (t, failure) result
val close : t -> unit

val open_session :
  ?spec:string ->
  ?max_events:int ->
  ?deadline_s:float ->
  ?max_shadow_bytes:int ->
  t ->
  (int, failure) result
(** Returns the server-assigned session id. *)

val feed_batch : t -> Dgrace_events.Batch.t -> (Json.t, failure) result
(** Send a non-empty batch of any length as BATCH frames (v2 block
    bodies) and return the last frame's [Ack] body.  The batch is cut
    where the v2 writer would close its blocks
    ({!Dgrace_trace.Trace_format_v2.encode_blocks}: at most
    {!Dgrace_trace.Trace_format_v2.block_events} rows, and before a
    body could outgrow the server's frame limit), the same rule
    {!replay} cuts by.  Locations intern per connection across frames.
    A row no frame can hold (a location over the trace format's
    limit) returns [Error (Protocol _)] before any frame is sent, with
    the connection's location table unchanged. *)

val finish : t -> (Json.t, failure) result
(** Finalize; returns the [Summary] body (the run envelope). *)

val status : t -> (Json.t, failure) result

val races : t -> string list
(** Incremental race lines collected so far, oldest first. *)

(** {1 Fault injection} *)

type fault =
  | Garbage  (** bytes that are not a frame *)
  | Truncate  (** half a valid frame, then close *)
  | Disconnect  (** vanish mid-session without Finish *)

val fault_of_string : string -> (fault, string) result

val inject : t -> fault -> unit
(** Perform the fault on the live connection and close it. *)

(** {1 One-shot replay} *)

type outcome = { races : string list; summary : Json.t }

val replay :
  ?spec:string ->
  ?max_events:int ->
  ?deadline_s:float ->
  ?max_shadow_bytes:int ->
  ?chunk_events:int ->
  ?fault:fault ->
  ?fault_after_frames:int ->
  socket:string ->
  Dgrace_events.Event.t list ->
  (outcome, failure) result
(** The whole client lifecycle over one session: connect, open, feed
    the events as BATCH frames, finish, close.  A frame holds at most
    [chunk_events] rows (default 512, at most
    {!Dgrace_trace.Trace_format_v2.block_events}) and is cut earlier
    where the v2 writer would close a block, so no frame outgrows the
    server's frame limit.  With [fault], the fault is injected instead
    of frame [fault_after_frames] (default 2) and the call reports how
    the session died. *)
