(** Trace format v2: length-prefixed blocks of run-length/delta
    compressed event columns, decoded straight into {!Batch.t}
    struct-of-arrays buffers.

    Layout (see doc/trace.md for the worked example):
    {v
    header := "DGRT" revision          (0x03 written; 0x02 still read)
    block  := varint body_len, body
    body   := varint n, kinds (mode: RLE | nibbles), tid RLE,
              addr zigzag-deltas, size RLE,
              access locations (mode: plain | RLE; interned across
              blocks, each predicted from the block's previous access
              of the same kind)
    v}

    Revision 2 has no mode bytes: its kinds are RLE and its location
    values plain, unpredicted ids.  One decoder reads both revisions.

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

(** The block revision every writer emits: 3. *)
val version : int

(** The block revisions the decoder reads: 2 and 3. *)
val readable : int -> bool

(** Events per block: {!Batch.default_capacity} (4096). *)
val block_events : int

(** Upper bound accepted for a block body (16 MiB). *)
val max_body_len : int

(** {1 Encoding} *)

(** Persistent per-stream encoder state: the location intern table,
    which spans blocks, and the byte buffer every body is encoded
    into, reused from block to block. *)
type block_encoder

val block_encoder : unit -> block_encoder

(** Encode one non-empty batch (≤ {!block_events} rows) as a block
    body without the length prefix — the serve batch-frame payload is
    exactly one body. *)
val encode_body : block_encoder -> Batch.t -> string

(** {1 Batch writing}

    Where a producer of block bodies closes a block, one rule for the
    file writer ({!batches_to_file}) and the serve client's batch
    frames: at most [rows] rows
    (clamped to [1 .. block_events]), and closed before a bound on the
    encoded body (a fixed varint allowance per row plus the bytes of
    each access's label unless it repeats the previous access's)
    could pass {!max_body_len}.  The bound assumes the blocks go
    through one {!block_encoder}, in order.

    Every row is checked against the bounds the decoder enforces
    ({!Trace_format.check_event}, over the columns) before anything is
    encoded: the first row that breaks one, in stream order, raises
    {!Dgrace_resilience.Error.E} ([Invalid_input], the message
    [check_event] gives that row's event), and nothing of the batch is
    written. *)

(** [encode_blocks ?rows enc batch emit] cuts [batch] into blocks by
    that rule and calls [emit body len] with each block's body, in the
    first [len] bytes of [body] (the encoder's buffer, overwritten by
    the next block).  The last block ends with the batch.
    @raise Dgrace_resilience.Error.E on a row a trace cannot store;
    [enc] is then untouched. *)
val encode_blocks :
  ?rows:int -> block_encoder -> Batch.t -> (Bytes.t -> int -> unit) -> unit

(** {1 Writer}

    A file writer takes rows: a block that closes inside a batch with
    no rows from an earlier batch is encoded straight from the batch,
    the rows of a block still open when a batch ends are copied out
    of it, so a batch is free again when the call that hands it over
    returns ({!Batch}'s recycling contract).  The blocks do not depend
    on where batches end. *)

val to_file : string -> ((Event.t -> unit) -> 'a) -> 'a * int
(** [to_file path f] writes the events [f] feeds to its sink as a v2
    trace at [path], returning [f]'s result and the event count.  The
    sink checks each event as it arrives (a refused one raises there)
    and hands the writer full batches.  If [f] raises, the file is
    closed and removed before the exception propagates: a flushed
    prefix would replay as a complete trace. *)

val batches_to_file : string -> ((Batch.t -> unit) -> 'a) -> 'a * int
(** {!to_file} for a producer of batches: the same bytes as {!to_file}
    over the same rows.  A batch with a row a trace cannot store
    raises before any of its rows is written.  The batch is free again
    when the call returns.  A producer's batches share one location
    table ({!Batch.create} [~locs]): rows of two tables in one block
    raise [Invalid_argument], as {!Batch.copy_row} does. *)

(** {1 Decoding} *)

(** Persistent per-stream decoder state: the stream's location ids,
    mapped to ids of one {!Loc_table.t}, and the running event count
    (which numbers batch rows). *)
type stream_decoder

(** [stream_decoder ?path ?revision ?locs ()] decodes bodies of block
    revision [revision] (default {!version}), interning each location
    the stream names into [locs] (default: a fresh table) once.
    @raise Invalid_argument unless [readable revision]. *)
val stream_decoder :
  ?path:string -> ?revision:int -> ?locs:Loc_table.t -> unit -> stream_decoder

(** [decode_body dec ~base body batch] decodes one block body into
    [batch] (cleared first, then pointed at the decoder's table).
    [base] is the body's absolute offset in the overall stream; error
    offsets are [base]-relative absolute.  Rows are numbered
    [off.(i) = events so far + i]. *)
val decode_body :
  stream_decoder -> base:int -> string -> Batch.t -> (unit, Error.t) result

(** {1 File reading} *)

(** The block revision named by the channel's v2 header.  Raises
    [Error.E (Corrupt_trace _)] unless the channel starts with a
    header of a {!readable} revision. *)
val check_header : ?path:string -> in_channel -> int

(** [read_block dec ic batch] reads the next block into [batch];
    [false] on clean EOF at a block boundary.  Raises [Error.E] on
    corruption.  The body is read into a buffer the decoder owns and
    reuses, so a block allocates only its new location strings. *)
val read_block : stream_decoder -> in_channel -> Batch.t -> bool

(** Fold over blocks decoded into one reused batch, on the calling
    domain — the replay hot path.  The batch is overwritten between
    calls.  [wrap_decode], if given, runs around each block's read and
    decode and returns its result (the engine passes a tracing span).
    Location ids are those of [locs] (default: a fresh table). *)
val fold_batches :
  ?wrap_decode:((unit -> bool) -> bool) ->
  ?locs:Loc_table.t ->
  string ->
  ('a -> Batch.t -> 'a) ->
  'a ->
  'a

(** Event-at-a-time surface for generic consumers; materializes each
    block once. *)
val read : ?path:string -> in_channel -> Event.t Seq.t

val fold_file : string -> ('a -> Event.t -> 'a) -> 'a -> 'a
val read_file : string -> Event.t list
