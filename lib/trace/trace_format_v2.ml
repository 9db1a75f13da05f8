open Dgrace_events
open Trace_format
module Error = Dgrace_resilience.Error

(* Trace format v2: the batched binary encoding.

   Same "DGRT" magic as v1 with version byte 2, then a sequence of
   length-prefixed blocks:

     block := varint body_len, body_len bytes of body
     body  := varint n                       (1 <= n <= block_events)
              kinds   — RLE (tag byte, varint run)
              a col   — RLE (varint value, varint run)   tids/parents
              b col   — zigzag-delta varints, one/row    addrs/locks/children
              c col   — RLE (varint value, varint run)   sizes/sync codes
              locs    — per access row: varint id,
                        fresh ids followed by varint len + bytes

   Columns use the Batch.t layout (kind codes = v1 tags).  The
   location intern table persists across blocks, exactly like the v1
   per-record interning, so a stream decoder must survive for a whole
   stream.  Every decode failure is a structured [Error.Corrupt_trace]
   with an absolute stream offset — truncating a v2 file at any byte
   yields a clean error, never an exception, and resync is rejected
   (blocks are self-delimiting; a corrupt block's extent is unknown).

   See doc/trace.md for the worked layout. *)

let version = 2
let block_events = Batch.default_capacity

(* A corrupt varint could name a multi-gigabyte body; cap well above
   any real block (4096 events * worst-case record size). *)
let max_body_len = 1 lsl 24

let zigzag d = if d >= 0 then d lsl 1 else (((-d) lsl 1) - 1)
let[@inline] unzigzag z = if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* ------------------------------------------------------------------ *)
(* encoding *)

(* [e_last_loc]/[e_last_id] memoize the last location written, by
   pointer: consecutive accesses from one site share one string, so
   most access rows skip hashing it.  The initial sentinel is private,
   so no caller's string can match it. *)
type block_encoder = {
  e_locs : (string, int) Hashtbl.t;
  mutable e_next_loc : int;
  mutable e_last_loc : string;
  mutable e_last_id : int;
}

let block_encoder () =
  {
    e_locs = Hashtbl.create 64;
    e_next_loc = 0;
    e_last_loc = String.make 1 '\000';
    e_last_id = -1;
  }

(* End of the run of equal values that starts at row [i]. *)
let run_end (col : int array) i n =
  let v = col.(i) in
  let j = ref (i + 1) in
  while !j < n && col.(!j) = v do
    incr j
  done;
  !j

(* An RLE column of (varint value, varint run) pairs. *)
let write_rle buf (col : int array) n =
  let i = ref 0 in
  while !i < n do
    let j = run_end col !i n in
    write_varint buf col.(!i);
    write_varint buf (j - !i);
    i := j
  done

let write_loc enc buf loc =
  if loc == enc.e_last_loc then write_varint buf enc.e_last_id
  else begin
    let id =
      match Hashtbl.find_opt enc.e_locs loc with
      | Some id ->
        write_varint buf id;
        id
      | None ->
        check_loc loc;
        let id = enc.e_next_loc in
        enc.e_next_loc <- id + 1;
        Hashtbl.replace enc.e_locs loc id;
        write_varint buf id;
        write_varint buf (String.length loc);
        Buffer.add_string buf loc;
        id
    in
    enc.e_last_loc <- loc;
    enc.e_last_id <- id
  end

(* Encode one batch as a block body (no length prefix): the serve 'B'
   frame payload is exactly one body. *)
let encode_body enc (b : Batch.t) =
  let n = Batch.length b in
  if n < 1 || n > block_events then
    invalid_arg "Trace_format_v2.encode_body: 1 <= batch length <= 4096 required";
  let buf = Buffer.create (n * 4) in
  write_varint buf n;
  let kind = b.Batch.kind in
  let i = ref 0 in
  while !i < n do
    let j = run_end kind !i n in
    Buffer.add_char buf (Char.chr kind.(!i));
    write_varint buf (j - !i);
    i := j
  done;
  write_rle buf b.Batch.a n;
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let v = b.Batch.b.(i) in
    write_varint buf (zigzag (v - !prev));
    prev := v
  done;
  write_rle buf b.Batch.c n;
  for i = 0 to n - 1 do
    if kind.(i) <= tag_write then write_loc enc buf b.Batch.loc.(i)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* block cutting *)

(* [bytes] bounds the encoded size of the [rows] counted so far: at most
   [row_bound] bytes of varints per row, plus the bytes of every
   access's location unless it repeats the previous access's string
   (which the encoder has then already interned).  A block closes
   before it could outgrow [max_body_len], the largest body the reader
   accepts, or hold more than [limit] rows. *)
type cutter = {
  limit : int;
  mutable rows : int;
  mutable bytes : int;
  mutable last_loc : string;
}

let row_bound = 64

let cutter ~rows =
  {
    limit = max 1 (min rows block_events);
    rows = 0;
    bytes = row_bound;
    last_loc = "";
  }

let admit c ev =
  let bound =
    match ev with
    | Event.Access { loc; _ } ->
      check_loc loc;
      if loc == c.last_loc then row_bound
      else begin
        c.last_loc <- loc;
        row_bound + String.length loc
      end
    | _ -> row_bound
  in
  if c.rows < c.limit && c.bytes + bound <= max_body_len then begin
    c.rows <- c.rows + 1;
    c.bytes <- c.bytes + bound;
    true
  end
  else begin
    c.rows <- 1;
    c.bytes <- row_bound + bound;
    false
  end

(* ------------------------------------------------------------------ *)
(* writer: the v1 Trace_writer surface over block buffering *)

type writer = {
  oc : out_channel;
  enc : block_encoder;
  pending : Batch.t;
  cut : cutter;
  mutable count : int;
}

let create oc =
  output_string oc magic;
  output_byte oc version;
  {
    oc;
    enc = block_encoder ();
    pending = Batch.create ();
    cut = cutter ~rows:block_events;
    count = 0;
  }

let flush_block w =
  if Batch.length w.pending > 0 then begin
    let body = encode_body w.enc w.pending in
    let hdr = Buffer.create 4 in
    write_varint hdr (String.length body);
    Buffer.output_buffer w.oc hdr;
    output_string w.oc body;
    Batch.clear w.pending
  end

let write w ev =
  if not (admit w.cut ev) then flush_block w;
  Batch.push w.pending ev;
  w.count <- w.count + 1

let sink w ev = write w ev
let events_written w = w.count

let close w =
  flush_block w;
  close_out w.oc

let to_file path f =
  let oc = open_out_bin path in
  let w = create oc in
  match f (sink w) with
  | v ->
    let n = w.count in
    close w;
    (v, n)
  | exception e ->
    close w;
    raise e

(* ------------------------------------------------------------------ *)
(* decoding *)

(* The location table is id-indexed: ids are dense (0 ..
   d_next_loc-1, each fresh id is exactly the next one), so a string
   array that doubles when full replaces a hash table. *)
type stream_decoder = {
  path : string option;
  mutable d_locs : string array;
  mutable d_next_loc : int;
  mutable events_read : int;
}

let stream_decoder ?path () =
  { path; d_locs = Array.make 64 ""; d_next_loc = 0; events_read = 0 }

let add_loc dec s =
  let id = dec.d_next_loc in
  if id = Array.length dec.d_locs then begin
    let grown = Array.make (2 * id) "" in
    Array.blit dec.d_locs 0 grown 0 id;
    dec.d_locs <- grown
  end;
  Array.unsafe_set dec.d_locs id s;
  dec.d_next_loc <- id + 1

(* In-body cursor; [Corrupt] carries the reason, the caller maps it to
   an [Error.Corrupt_trace] at the cursor's absolute offset. *)
type cursor = { s : string; mutable pos : int }

let cur_byte cur =
  let p = cur.pos in
  if p >= String.length cur.s then raise (Corrupt "truncated block");
  cur.pos <- p + 1;
  Char.code (String.unsafe_get cur.s p)

(* Multi-byte varints: a top-level loop, so no closure is allocated
   per read. *)
let rec varint_loop cur acc shift =
  if shift > 62 then raise (Corrupt "varint too long");
  let b = cur_byte cur in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_loop cur acc (shift + 7)

let varint_slow cur =
  let n = varint_loop cur 0 0 in
  if n < 0 then raise (Corrupt "varint overflow") else n

(* Most varints are one byte (RLE runs of 1, small deltas, location
   ids): read those inline; anything else, including a truncated
   body, takes the loop, which raises exactly as a full read would. *)
let[@inline] cur_varint cur =
  let p = cur.pos in
  if p < String.length cur.s then begin
    let b = Char.code (String.unsafe_get cur.s p) in
    if b < 0x80 then begin
      cur.pos <- p + 1;
      b
    end
    else varint_slow cur
  end
  else varint_slow cur

let cur_take cur len =
  if len > String.length cur.s - cur.pos then raise (Corrupt "truncated block");
  let s = String.sub cur.s cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* Decode one block body into [batch].  [base] is the body's absolute
   offset in the stream, used for error offsets.  Rows get
   [off = events_read + i]: a monotone stream position, the same order
   key the shard splitter uses, so races merge identically.

   Every check runs in the order of the reference decoder kept in
   test/v2_oracle.ml, so a corrupt body fails with the same offset,
   reason and events_read; run bounds are compared as [run > n - i]
   so a huge varint cannot overflow past them.  Each row's location
   is stored once, and only when the pointer changes; rows past [n]
   left from the previous block are blanked so a parked batch pins no
   strings. *)
let decode_rows dec cur (batch : Batch.t) =
  let n = cur_varint cur in
  if n < 1 || n > block_events then
    raise (Corrupt (Printf.sprintf "block event count %d out of range" n));
  if n > Batch.capacity batch then
    invalid_arg "Trace_format_v2.decode_body: batch capacity too small";
  batch.Batch.len <- 0;
  let kind = batch.Batch.kind
  and a = batch.Batch.a
  and b = batch.Batch.b
  and c = batch.Batch.c
  and loc = batch.Batch.loc in
  (* kinds *)
  let i = ref 0 in
  while !i < n do
    let tag = cur_byte cur in
    if tag > max_tag then
      raise (Corrupt (Printf.sprintf "unknown tag %d" tag));
    let run = cur_varint cur in
    if run < 1 || run > n - !i then raise (Corrupt "kind run out of range");
    for j = !i to !i + run - 1 do
      Array.unsafe_set kind j tag
    done;
    i := !i + run
  done;
  (* a column (tids/parents) *)
  let i = ref 0 in
  while !i < n do
    let v = cur_varint cur in
    if v > max_tid then
      raise (Corrupt (Printf.sprintf "tid %d out of range" v));
    let run = cur_varint cur in
    if run < 1 || run > n - !i then raise (Corrupt "tid run out of range");
    for j = !i to !i + run - 1 do
      Array.unsafe_set a j v
    done;
    i := !i + run
  done;
  (* b column (addrs/locks/children), zigzag deltas *)
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let v = !prev + unzigzag (cur_varint cur) in
    if v < 0 then raise (Corrupt "negative address");
    let k = Array.unsafe_get kind i in
    if (k = tag_fork || k = tag_join) && v > max_tid then
      raise (Corrupt (Printf.sprintf "tid %d out of range" v));
    Array.unsafe_set b i v;
    prev := v
  done;
  (* c column (sizes/sync codes); a value <= 3 is valid for every kind *)
  let i = ref 0 in
  while !i < n do
    let v = cur_varint cur in
    let run = cur_varint cur in
    if run < 1 || run > n - !i then raise (Corrupt "size run out of range");
    for j = !i to !i + run - 1 do
      if v > 3 then begin
        let k = Array.unsafe_get kind j in
        if k = tag_acquire || k = tag_release then
          raise (Corrupt (Printf.sprintf "bad sync kind %d" v))
        else if v > max_access_size then
          raise (Corrupt (Printf.sprintf "size %d out of range" v))
      end;
      Array.unsafe_set c j v
    done;
    i := !i + run
  done;
  (* locations, access rows only *)
  for i = 0 to n - 1 do
    let s =
      if Array.unsafe_get kind i <= tag_write then begin
        let id = cur_varint cur in
        if id < dec.d_next_loc then Array.unsafe_get dec.d_locs id
        else if id = dec.d_next_loc then begin
          let len = cur_varint cur in
          if len > max_loc_len then
            raise
              (Corrupt (Printf.sprintf "location length %d out of range" len));
          let s = cur_take cur len in
          add_loc dec s;
          s
        end
        else
          raise (Corrupt (Printf.sprintf "location id %d from the future" id))
      end
      else ""
    in
    if Array.unsafe_get loc i != s then Array.unsafe_set loc i s
  done;
  if cur.pos <> String.length cur.s then
    raise (Corrupt "trailing bytes in block");
  n

let decode_body_exn dec ~base body (batch : Batch.t) =
  let cur = { s = body; pos = 0 } in
  let old_len = batch.Batch.len in
  match decode_rows dec cur batch with
  | n ->
    let loc = batch.Batch.loc and off = batch.Batch.off in
    for i = n to old_len - 1 do
      Array.unsafe_set loc i ""
    done;
    let first = dec.events_read in
    for i = 0 to n - 1 do
      Array.unsafe_set off i (first + i)
    done;
    batch.Batch.len <- n;
    dec.events_read <- first + n
  | exception Corrupt reason ->
    (* once rows are being overwritten the batch reads as empty: drop
       every location pointer it holds *)
    if batch.Batch.len = 0 then
      Array.fill batch.Batch.loc 0 (Array.length batch.Batch.loc) "";
    raise
      (Error.E
         (Error.Corrupt_trace
            {
              path = dec.path;
              offset = base + cur.pos;
              events_read = dec.events_read;
              reason;
            }))

let decode_body dec ~base body batch =
  match decode_body_exn dec ~base body batch with
  | () -> Ok ()
  | exception Error.E e -> Error e

(* ------------------------------------------------------------------ *)
(* file reading *)

let check_header ?path ic =
  let fail ~offset reason =
    raise
      (Error.E (Error.Corrupt_trace { path; offset; events_read = 0; reason }))
  in
  (match really_input_string ic (String.length magic) with
   | exception End_of_file -> fail ~offset:0 "bad magic (shorter than header)"
   | m -> if m <> magic then fail ~offset:0 "bad magic");
  match input_byte ic with
  | exception End_of_file ->
    fail ~offset:(String.length magic) "missing version byte"
  | v ->
    if v <> version then
      fail ~offset:(String.length magic)
        (Printf.sprintf "unsupported version %d" v)

(* Read one block into [batch]; false on clean EOF at a block
   boundary.  Truncation anywhere inside the length prefix or body is
   a corrupt-trace error at the block's start offset. *)
let read_block dec ic batch =
  let start = pos_in ic in
  let corrupt reason =
    raise
      (Error.E
         (Error.Corrupt_trace
            {
              path = dec.path;
              offset = start;
              events_read = dec.events_read;
              reason;
            }))
  in
  match input_byte ic with
  | exception End_of_file -> false
  | b0 ->
    let body_len =
      let rec loop acc shift b =
        if shift > 62 then corrupt "varint too long"
        else
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then acc
          else
            match input_byte ic with
            | exception End_of_file -> corrupt "truncated block header"
            | b -> loop acc (shift + 7) b
      in
      let n = loop 0 0 b0 in
      if n < 0 then corrupt "varint overflow" else n
    in
    if body_len < 1 || body_len > max_body_len then
      corrupt (Printf.sprintf "block length %d out of range" body_len);
    let base = pos_in ic in
    let body =
      match really_input_string ic body_len with
      | exception End_of_file -> corrupt "truncated block"
      | s -> s
    in
    decode_body_exn dec ~base body batch;
    true

(* Fold over blocks decoded into a single reused batch: the batched
   replay hot path.  The batch passed to [f] is overwritten by the
   next block — consume it before returning. *)
let fold_batches path f init =
  let ic = open_in_bin path in
  let run () =
    check_header ~path ic;
    let dec = stream_decoder ~path () in
    let batch = Batch.create () in
    let rec loop acc =
      if read_block dec ic batch then loop (f acc batch) else acc
    in
    loop init
  in
  match run () with
  | acc ->
    close_in ic;
    acc
  | exception e ->
    close_in ic;
    raise e

(* Event-at-a-time surface for generic consumers (dump, convert,
   per-event differential replays).  Each block is materialized once;
   not the hot path. *)
let read ?path ic =
  check_header ?path ic;
  let dec = stream_decoder ?path () in
  let batch = Batch.create () in
  let rec block () =
    if read_block dec ic batch then begin
      let evs = Array.init (Batch.length batch) (Batch.event batch) in
      within evs 0
    end
    else Seq.Nil
  and within evs i =
    if i < Array.length evs then
      Seq.Cons (evs.(i), fun () -> within evs (i + 1))
    else block ()
  in
  fun () -> block ()

let fold_file path f init =
  let ic = open_in_bin path in
  match Seq.fold_left f init (read ~path ic) with
  | acc ->
    close_in ic;
    acc
  | exception e ->
    close_in ic;
    raise e

let read_file path = List.rev (fold_file path (fun acc ev -> ev :: acc) [])
