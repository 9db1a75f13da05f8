module Json = Dgrace_obs.Json
module Trace_format_v2 = Dgrace_trace.Trace_format_v2
module Batch = Dgrace_events.Batch
module Error = Dgrace_resilience.Error

(* Client side of the serve wire protocol — used by [racedet client],
   the differential tests and the socket-path fault harness.  The
   protocol is deliberately synchronous per request: a client sends
   one frame and reads until the matching response, collecting any
   incremental [Race] lines that arrive in between.  Synchronous
   feeding also closes the classic both-sides-blocked-writing deadlock
   by construction. *)

type t = {
  fd : Unix.file_descr;
  benc : Trace_format_v2.block_encoder;  (* 'B' frame bodies *)
  mutable races : string list;  (* newest first *)
}

type failure =
  | Protocol of string  (* transport/framing trouble on our side *)
  | Server of { code : int; error : Json.t }  (* structured Err frame *)
  | Gave_up of string  (* backpressure retries exhausted *)

let failure_to_string = function
  | Protocol r -> Printf.sprintf "protocol: %s" r
  | Server { code; error } ->
    Printf.sprintf "server error (exit code %d): %s" code
      (Json.to_string ~minify:true error)
  | Gave_up r -> Printf.sprintf "gave up: %s" r

let connect ~socket =
  Wire.ignore_sigpipe ();
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Ok { fd; benc = Trace_format_v2.block_encoder (); races = [] }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Protocol (Printf.sprintf "connect %s: %s" socket (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let races t = List.rev t.races

(* Read until a non-[Race] response arrives. *)
let rec await t =
  match Wire.read t.fd with
  | Ok None -> Error (Protocol "server closed connection")
  | Error reason -> Error (Protocol reason)
  | Ok (Some (Wire.Race line)) ->
    t.races <- line :: t.races;
    await t
  | Ok (Some frame) -> Ok frame

let server_failure j =
  let code =
    match Json.member "code" j with Some (Json.Int n) -> n | _ -> -1
  in
  let error =
    match Json.member "error" j with Some e -> e | None -> Json.Null
  in
  Server { code; error }

let retry_after j =
  match Json.member "retry_after_s" j with
  | Some (Json.Float s) -> s
  | Some (Json.Int s) -> float_of_int s
  | _ -> 0.1

let max_retries = 200

(* Send [frame], await its response; on [Overloaded] wait the hinted
   time and resend the identical frame (the server accepted nothing,
   so ordering is preserved). *)
let request t frame ~expect =
  let rec go attempt =
    match
      try Ok (Wire.write t.fd frame)
      with Unix.Unix_error (e, _, _) ->
        Error (Protocol (Printf.sprintf "write: %s" (Unix.error_message e)))
    with
    | Error f -> Error f
    | Ok () -> (
      match await t with
      | Error f -> Error f
      | Ok (Wire.Overloaded j) ->
        if attempt >= max_retries then
          Error (Gave_up "overloaded: retry budget exhausted")
        else begin
          Thread.delay (retry_after j);
          go (attempt + 1)
        end
      | Ok (Wire.Err j) -> Error (server_failure j)
      | Ok frame -> (
        match expect frame with
        | Some v -> Ok v
        | None -> Error (Protocol "unexpected response frame")))
  in
  go 0

let open_session ?(spec = "dynamic") ?max_events ?deadline_s
    ?max_shadow_bytes t =
  let fields =
    [
      ("spec", Json.String spec);
      (* the block revision of this connection's B bodies *)
      ("revision", Json.Int Trace_format_v2.version);
    ]
    @ (match max_events with Some n -> [ ("max_events", Json.Int n) ] | None -> [])
    @ (match deadline_s with
       | Some s -> [ ("deadline_s", Json.Float s) ]
       | None -> [])
    @
    match max_shadow_bytes with
    | Some n -> [ ("max_shadow_bytes", Json.Int n) ]
    | None -> []
  in
  request t (Wire.Open (Json.Obj fields)) ~expect:(function
    | Wire.Opened j -> (
      match Json.member "session" j with
      | Some (Json.Int id) -> Some id
      | _ -> None)
    | _ -> None)

(* One BATCH frame of an encoded block body.  A body is encoded once,
   so an Overloaded retry resends the identical bytes (the encoder's
   intern table advanced exactly once). *)
let feed_body t body =
  request t (Wire.Feed_batch body) ~expect:(function
    | Wire.Ack j -> Some j
    | _ -> None)

exception Send_failed of failure

(* The client's one cut rule: [batch] goes out as the BATCH frames the
   v2 writer would cut it into blocks, each of at most [rows] rows and
   closed before its body could outgrow the server's frame limit
   (distinct long locations make big bodies).  Every row is checked
   before the first frame is encoded, so a row no frame can hold (a
   location over the trace format's limit) fails the call with the
   connection's location table untouched.  [send] sends one frame
   body; the result is the last frame's. *)
let feed_cut t ~rows ~send batch =
  if Batch.length batch = 0 then Error (Protocol "empty batch")
  else
    let last = ref (Error (Protocol "no frame")) in
    let emit body len =
      match send (Bytes.sub_string body 0 len) with
      | Ok _ as ok -> last := ok
      | Error f -> raise (Send_failed f)
    in
    match Trace_format_v2.encode_blocks ~rows t.benc batch emit with
    | () -> !last
    | exception Error.E e -> Error (Protocol (Error.to_string e))
    | exception Send_failed f -> Error f

let feed_batch t batch =
  feed_cut t ~rows:Trace_format_v2.block_events ~send:(feed_body t) batch

let finish t =
  request t Wire.Finish ~expect:(function
    | Wire.Summary j -> Some j
    | _ -> None)

let status t =
  request t Wire.Status ~expect:(function
    | Wire.Status_doc j -> Some j
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* fault injection (the socket-path fault harness drives these) *)

type fault =
  | Garbage  (* bytes that are not a frame *)
  | Truncate  (* half a valid frame, then close *)
  | Disconnect  (* vanish mid-session without Finish *)

let fault_of_string = function
  | "garbage" -> Ok Garbage
  | "truncate" -> Ok Truncate
  | "disconnect" -> Ok Disconnect
  | s -> Error (Printf.sprintf "unknown fault %S (garbage|truncate|disconnect)" s)

let write_raw fd s =
  let rec loop off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
  in
  (try loop 0 with Unix.Unix_error _ -> ())

let inject t fault =
  (match fault with
   | Garbage ->
     (* a length field far over the limit: the server's reader rejects
        it as a protocol error and poisons the session *)
     write_raw t.fd "\xff\xff\xff\xff\xff"
   | Truncate ->
     let frame = Wire.encode (Wire.Feed_batch (String.make 64 '\x00')) in
     write_raw t.fd (String.sub frame 0 (String.length frame / 2))
   | Disconnect -> ());
  close t

(* ------------------------------------------------------------------ *)
(* one-shot replay: the whole client lifecycle over one session *)

type outcome = { races : string list; summary : Json.t }

(* Connect, open, feed, finish, close.  The events travel as BATCH
   frames cut where the v2 writer cuts its blocks: at [chunk_events]
   rows, and before a body could outgrow the server's frame limit
   (distinct long locations make big bodies).  With [fault], the fault
   replaces frame [fault_after_frames]. *)
let replay ?spec ?max_events ?deadline_s ?max_shadow_bytes
    ?(chunk_events = 512) ?fault ?(fault_after_frames = 2) ~socket events =
  match connect ~socket with
  | Error f -> Error f
  | Ok t ->
    let finally_close r =
      close t;
      r
    in
    (match open_session ?spec ?max_events ?deadline_s ?max_shadow_bytes t with
     | Error f -> finally_close (Error f)
     | Ok _id ->
       let sent = ref 0 in
       let send body =
         match fault with
         | Some f when !sent = fault_after_frames ->
           inject t f;
           Error (Protocol "fault injected")
         | _ ->
           incr sent;
           feed_body t body
       in
       let fed =
         if events = [] then Ok ()
         else
           Result.map ignore
             (feed_cut t ~rows:chunk_events ~send (Batch.of_events events))
       in
       (match fed with
        | Error f -> finally_close (Error f)
        | Ok () -> (
          match finish t with
          | Error f -> finally_close (Error f)
          | Ok summary -> finally_close (Ok { races = races t; summary }))))
