module Json = Dgrace_obs.Json

(* The serve wire protocol (doc/serve.md): length-prefixed frames over
   a byte stream.  Every frame is

     4 bytes  payload length, big-endian
     1 byte   frame type (an ASCII letter)
     N bytes  payload

   Requests use upper-case types, responses lower-case.  Payloads are
   minified JSON except BATCH, whose payload is one v2 block body
   (Trace_format_v2), and RACE, a rendered report line.  The reader
   is deliberately paranoid: an unknown type byte or an over-size
   length is a protocol error, not a crash — the server answers it by
   poisoning that one session. *)

type frame =
  (* requests *)
  | Open of Json.t  (* session options: spec, budget *)
  | Feed_batch of string  (* one v2 block body (Trace_format_v2) *)
  | Finish
  | Status
  (* responses *)
  | Opened of Json.t  (* { "session": id } *)
  | Ack of Json.t  (* { "events": n, "races": n } *)
  | Race of string  (* one incremental race report line *)
  | Summary of Json.t  (* the run envelope, plus race report lines *)
  | Err of Json.t  (* { "code": n, "error": ... } *)
  | Overloaded of Json.t  (* { "retry_after_s": s } *)
  | Status_doc of Json.t

let default_max_frame_bytes = 16 * 1024 * 1024

(* A peer that vanishes must surface as EPIPE on the write (which the
   callers handle), not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let type_byte = function
  | Open _ -> 'O'
  | Feed_batch _ -> 'B'
  | Finish -> 'N'
  | Status -> 'S'
  | Opened _ -> 'o'
  | Ack _ -> 'a'
  | Race _ -> 'r'
  | Summary _ -> 's'
  | Err _ -> 'e'
  | Overloaded _ -> 'v'
  | Status_doc _ -> 't'

let payload = function
  | Open j | Opened j | Ack j | Summary j | Err j | Overloaded j
  | Status_doc j ->
    Json.to_string ~minify:true j
  | Feed_batch s | Race s -> s
  | Finish | Status -> ""

(* ------------------------------------------------------------------ *)
(* fd I/O.  Writers serialise externally (one mutex per connection);
   a frame is rendered to one string and written with one loop so a
   frame is never interleaved with another writer's bytes. *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = try Unix.write_substring fd s off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
    write_all fd s (off + n) (len - n)
  end

let encode frame =
  let p = payload frame in
  let len = String.length p in
  let b = Bytes.create (5 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  Bytes.set b 4 (type_byte frame);
  Bytes.blit_string p 0 b 5 len;
  Bytes.unsafe_to_string b

let write fd frame =
  let s = encode frame in
  write_all fd s 0 (String.length s)

(* Read exactly [len] bytes; [`Eof n] reports how many arrived before
   the peer went away. *)
let read_exact fd len =
  let b = Bytes.create len in
  let rec loop off =
    if off >= len then `Ok (Bytes.unsafe_to_string b)
    else
      match Unix.read fd b off (len - off) with
      | 0 -> `Eof off
      | n -> loop (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        `Eof off
  in
  loop 0

let parse_json s =
  match Json.parse s with
  | Ok j -> Ok j
  | Error msg -> Error (Printf.sprintf "bad JSON payload: %s" msg)

let frame_of ~typ ~body =
  match typ with
  | 'O' -> Result.map (fun j -> Open j) (parse_json body)
  | 'B' -> Ok (Feed_batch body)
  | 'N' -> Ok Finish
  | 'S' -> Ok Status
  | 'o' -> Result.map (fun j -> Opened j) (parse_json body)
  | 'a' -> Result.map (fun j -> Ack j) (parse_json body)
  | 'r' -> Ok (Race body)
  | 's' -> Result.map (fun j -> Summary j) (parse_json body)
  | 'e' -> Result.map (fun j -> Err j) (parse_json body)
  | 'v' -> Result.map (fun j -> Overloaded j) (parse_json body)
  | 't' -> Result.map (fun j -> Status_doc j) (parse_json body)
  | c -> Error (Printf.sprintf "unknown frame type 0x%02x" (Char.code c))

(* [read fd] is [Ok None] on clean end-of-stream (EOF on a frame
   boundary), [Ok (Some frame)] on a well-formed frame, and [Error
   reason] on everything else: garbage type bytes, an over-limit
   length, or a peer that vanished mid-frame. *)
let read ?(max_frame_bytes = default_max_frame_bytes) fd =
  match read_exact fd 5 with
  | `Eof 0 -> Ok None
  | `Eof _ -> Error "truncated frame header"
  | `Ok hdr ->
    let len =
      (Char.code hdr.[0] lsl 24)
      lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8)
      lor Char.code hdr.[3]
    in
    if len > max_frame_bytes then
      Error (Printf.sprintf "frame length %d exceeds limit %d" len max_frame_bytes)
    else (
      match read_exact fd len with
      | `Eof got ->
        Error (Printf.sprintf "truncated frame: %d of %d payload bytes" got len)
      | `Ok body ->
        Result.map Option.some (frame_of ~typ:hdr.[4] ~body))
