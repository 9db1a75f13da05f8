(** Trace format v2: length-prefixed blocks of run-length/delta
    compressed event columns, decoded straight into {!Batch.t}
    struct-of-arrays buffers.

    Layout (see doc/trace.md for the worked example):
    {v
    header := "DGRT" 0x02
    block  := varint body_len, body
    body   := varint n, kinds RLE, tid RLE, addr zigzag-deltas,
              size RLE, access locations (interned across blocks)
    v}

    The b column (addresses, lock ids, fork/join children) stores any
    [int]: wrapping deltas, zigzagged, as unsigned varints of at most
    nine bytes.  Writers refuse an event whose fields the decoder would
    reject ({!Trace_format.check_event}); only lock ids may lie
    outside [0 .. Trace_format.max_addr].

    Any malformed or truncated byte yields a structured
    {!Dgrace_resilience.Error.Corrupt_trace} with an absolute stream
    offset — never a bare exception. *)

open Dgrace_events
module Error := Dgrace_resilience.Error

val version : int

(** Events per block: {!Batch.default_capacity} (4096). *)
val block_events : int

(** Upper bound accepted for a block body (16 MiB). *)
val max_body_len : int

(** {1 Encoding} *)

(** Persistent per-stream encoder state (the location intern table
    spans blocks). *)
type block_encoder

val block_encoder : unit -> block_encoder

(** Encode one non-empty batch (≤ {!block_events} rows) as a block
    body without the length prefix — the serve batch-frame payload is
    exactly one body. *)
val encode_body : block_encoder -> Batch.t -> string

(** {1 Block cutting}

    Where a producer of block bodies closes a block: the {!writer}
    and the serve client's batch frames cut by the same rule. *)

type cutter

(** [cutter ~rows] starts an empty block of at most [rows] rows
    ([rows] is clamped to [1 .. block_events]). *)
val cutter : rows:int -> cutter

(** [admit c ev] counts [ev] into the block being filled and is [true]
    while it fits: at most [rows] rows, and a bound on the encoded body
    (a fixed varint allowance per row plus each new location's bytes)
    no larger than {!max_body_len}.  [false] means [ev] does not fit:
    close the pending block, and [ev] opens the next one (it is
    already counted there).  The bound assumes the blocks go through
    one {!block_encoder}, in order.
    @raise Dgrace_resilience.Error.E on a location longer than
    [Trace_format.max_loc_len]; nothing is counted then. *)
val admit : cutter -> Event.t -> bool

(** {1 Writer} — the {!Trace_writer} surface over block buffering. *)

type writer

val create : out_channel -> writer
val write : writer -> Event.t -> unit
val sink : writer -> Event.t -> unit
val events_written : writer -> int

(** Flushes the final partial block and closes the channel. *)
val close : writer -> unit

val to_file : string -> ((Event.t -> unit) -> 'a) -> 'a * int
(** [to_file path f] writes the events [f] feeds to its sink as a v2
    trace at [path], returning [f]'s result and the event count.  If [f]
    raises, the file is closed and removed before the exception
    propagates: a flushed prefix would replay as a complete trace. *)

(** {1 Decoding} *)

(** Persistent per-stream decoder state: the location table and the
    running event count (which numbers batch rows). *)
type stream_decoder

val stream_decoder : ?path:string -> unit -> stream_decoder

(** [decode_body dec ~base body batch] decodes one block body into
    [batch] (cleared first).  [base] is the body's absolute offset in
    the overall stream; error offsets are [base]-relative absolute.
    Rows are numbered [off.(i) = events so far + i]. *)
val decode_body :
  stream_decoder -> base:int -> string -> Batch.t -> (unit, Error.t) result

(** {1 File reading} *)

(** Raises [Error.E (Corrupt_trace _)] unless the channel starts with
    a v2 header. *)
val check_header : ?path:string -> in_channel -> unit

(** [read_block dec ic batch] reads the next block into [batch];
    [false] on clean EOF at a block boundary.  Raises [Error.E] on
    corruption.  The body is read into a buffer the decoder owns and
    reuses, so a block allocates only its new location strings. *)
val read_block : stream_decoder -> in_channel -> Batch.t -> bool

(** Fold over blocks decoded into one reused batch, on the calling
    domain — the replay hot path.  The batch is overwritten between
    calls.  [wrap_decode], if given, runs around each block's read and
    decode and returns its result (the engine passes a tracing span). *)
val fold_batches :
  ?wrap_decode:((unit -> bool) -> bool) ->
  string ->
  ('a -> Batch.t -> 'a) ->
  'a ->
  'a

(** Event-at-a-time surface for generic consumers; materializes each
    block once. *)
val read : ?path:string -> in_channel -> Event.t Seq.t

val fold_file : string -> ('a -> Event.t -> 'a) -> 'a -> 'a
val read_file : string -> Event.t list
