open Dgrace_events
open Trace_format
module Error = Dgrace_resilience.Error

(* Trace format v2: the batched binary encoding.

   Same "DGRT" magic as v1; the version byte is the block revision,
   2 or 3.  Then a sequence of length-prefixed blocks:

     block := varint body_len, body_len bytes of body
     body  := varint n                       (1 <= n <= block_events)
              kinds   — mode byte (rev 3), then
                        mode 0: RLE (tag byte, varint run)
                        mode 1: packed nibbles, row 2i low, 2i+1 high
              a col   — RLE (varint value, varint run)   tids/parents
              b col   — zigzag-delta uvarints, one/row   addrs/locks/children
              c col   — RLE (varint value, varint run)   sizes/sync codes
              locs    — mode byte (rev 3), then per access row a value,
                        fresh ids followed by varint len + bytes;
                        mode 0: plain values
                        mode 1: RLE (value, [fresh], varint run)

   A revision-3 location value is 0 for "the site of the previous
   access of this row's kind in this block", else id + 1; a
   revision-2 value is the id itself, and revision 2 has no mode
   bytes (its kinds are RLE and its locations plain).  Writers emit
   revision 3 and pick each column's smaller mode; the one decoder
   reads both revisions.

   Columns use the Batch.t layout (kind codes = v1 tags).  The
   location intern table persists across blocks, exactly like the v1
   per-record interning, so a stream decoder must survive for a whole
   stream.  Every decode failure is a structured [Error.Corrupt_trace]
   with an absolute stream offset — truncating a v2 file at any byte
   yields a clean error, never an exception, and resync is rejected
   (blocks are self-delimiting; a corrupt block's extent is unknown).

   See doc/trace.md for the worked layout. *)

let version = 3
let readable revision = revision = 2 || revision = 3
let block_events = Batch.default_capacity

(* A corrupt varint could name a multi-gigabyte body; cap well above
   any real block (4096 events * worst-case record size). *)
let max_body_len = 1 lsl 24

(* The b column is a bijection on every int: a row stores the
   wrapping difference from the row before, zigzagged (0, -1, 1, -2
   .. to 0, 1, 2, 3 ..) and written as an unsigned varint of up to
   nine bytes, so a lock id of [max_int] after lock 0, or any negative
   one, round-trips.  On the small deltas of real traces it is the
   plain zigzag varint. *)
let[@inline] zigzag d = (d lsl 1) lxor (d asr 62)
let[@inline] unzigzag z = (z lsr 1) lxor (-(z land 1))

(* ------------------------------------------------------------------ *)
(* encoding *)

(* Stream ids are numbered in order of first appearance.  [e_sid]
   maps ids of [e_src], the table of the batches being encoded, to
   stream ids ([-1]: not yet seen), so an access row costs one array
   load.  [e_streams] maps every label the stream has named to its
   stream id: a batch over another table starts [e_sid] afresh and
   finds the labels the stream already named there.  [e_names] maps
   stream ids back to labels, for writing a fresh id's bytes after
   its value; [e_vals] holds one block's location values while the
   encoder sizes both modes.  [out] is the byte cursor every body is
   encoded into: its first [len] bytes, reused from block to block. *)
type block_encoder = {
  e_streams : (string, int) Hashtbl.t;
  mutable e_next_loc : int;
  mutable e_names : string array;
  mutable e_src : Loc_table.t;
  mutable e_sid : int array;
  e_vals : int array;
  mutable out : Bytes.t;
  mutable len : int;
}

let block_encoder () =
  {
    e_streams = Hashtbl.create 64;
    e_next_loc = 0;
    e_names = Array.make 64 "";
    e_src = Loc_table.create ();
    e_sid = Array.make 64 (-1);
    e_vals = Array.make block_events 0;
    out = Bytes.create 4096;
    len = 0;
  }

(* Room for [n] more bytes after [len]: the cursor's one capacity check
   per column, whose stores then go unchecked.  A row's varint takes at
   most nine bytes (a 63-bit value), and a run length at most two. *)
let reserve enc n =
  let need = enc.len + n in
  if need > Bytes.length enc.out then begin
    let grown = Bytes.create (Int.max need (2 * Bytes.length enc.out)) in
    Bytes.blit enc.out 0 grown 0 enc.len;
    enc.out <- grown
  end

let max_varint = 9
let max_pair = max_varint + 2

let[@inline] put s p v = Bytes.unsafe_set s p (Char.unsafe_chr v)

(* [v] read as unsigned, as a varint at [p] of [s]; the position after
   it. *)
let rec put_uvarint_slow s p v =
  if v land lnot 0x7f = 0 then begin
    put s p v;
    p + 1
  end
  else begin
    put s p (0x80 lor (v land 0x7f));
    put_uvarint_slow s (p + 1) (v lsr 7)
  end

let[@inline] put_uvarint s p v =
  if v land lnot 0x7f = 0 then begin
    put s p v;
    p + 1
  end
  else put_uvarint_slow s p v

let negative () = invalid_arg "Trace_format_v2: negative varint"
let[@inline] put_varint s p v = if v < 0 then negative () else put_uvarint s p v

(* Bytes of [put_uvarint v], [v >= 0]. *)
let rec varint_len_from v len =
  if v < 0x80 then len else varint_len_from (v lsr 7) (len + 1)

let[@inline] varint_len v = if v < 0x80 then 1 else varint_len_from (v lsr 7) 2

(* End of the run of equal values that starts at row [i < hi]. *)
let[@inline] run_end (col : int array) i hi =
  let v = Array.unsafe_get col i in
  let j = ref (i + 1) in
  while !j < hi && Array.unsafe_get col !j = v do
    incr j
  done;
  !j

(* An RLE column of (varint value, varint run) pairs over rows
   [lo, hi). *)
let put_rle enc (col : int array) lo hi =
  reserve enc (max_pair * (hi - lo));
  let s = enc.out in
  let p = ref enc.len and i = ref lo in
  while !i < hi do
    let j = run_end col !i hi in
    p := put_varint s !p (Array.unsafe_get col !i);
    p := put_uvarint s !p (j - !i);
    i := j
  done;
  enc.len <- !p

(* Kinds: RLE (mode 0) or packed nibbles (mode 1), whichever is
   smaller; a tie keeps RLE.  The RLE size is counted only until it
   passes the nibbles' (a run of at most 4096 rows takes a tag byte
   and one or two varint bytes). *)
let put_kinds enc (kind : int array) lo hi =
  let n = hi - lo in
  let nibbles = (n + 1) / 2 in
  let rle = ref 0 and start = ref lo and i = ref (lo + 1) in
  while !rle <= nibbles && !i <= hi do
    if !i = hi || Array.unsafe_get kind !i <> Array.unsafe_get kind !start
    then begin
      rle := !rle + if !i - !start < 0x80 then 2 else 3;
      start := !i
    end;
    incr i
  done;
  reserve enc (1 + (3 * n));
  let s = enc.out in
  let p = ref enc.len and i = ref lo in
  if nibbles < !rle then begin
    put s !p 1;
    incr p;
    while !i + 1 < hi do
      put s !p
        (Array.unsafe_get kind !i lor (Array.unsafe_get kind (!i + 1) lsl 4));
      incr p;
      i := !i + 2
    done;
    if !i < hi then begin
      put s !p (Array.unsafe_get kind !i);
      incr p
    end
  end
  else begin
    put s !p 0;
    incr p;
    while !i < hi do
      let j = run_end kind !i hi in
      put s !p (Array.unsafe_get kind !i);
      p := put_uvarint s (!p + 1) (j - !i);
      i := j
    done
  end;
  enc.len <- !p

(* The b column: a zigzagged wrapping delta per row, from 0 at the
   block's first row. *)
let put_deltas enc (b : int array) lo hi =
  reserve enc (max_varint * (hi - lo));
  let s = enc.out in
  let p = ref enc.len and prev = ref 0 in
  for i = lo to hi - 1 do
    let v = Array.unsafe_get b i in
    p := put_uvarint s !p (zigzag (v - !prev));
    prev := v
  done;
  enc.len <- !p

(* The stream id of table id [id], numbering its label if the stream
   has not named it yet. *)
let sid_slow enc id =
  let name = Loc_table.name enc.e_src id in
  let sid =
    match Hashtbl.find_opt enc.e_streams name with
    | Some sid -> sid
    | None ->
      check_loc name;
      let sid = enc.e_next_loc in
      if sid = Array.length enc.e_names then begin
        let grown = Array.make (2 * sid) "" in
        Array.blit enc.e_names 0 grown 0 sid;
        enc.e_names <- grown
      end;
      enc.e_names.(sid) <- name;
      enc.e_next_loc <- sid + 1;
      Hashtbl.replace enc.e_streams name sid;
      sid
  in
  let len = Array.length enc.e_sid in
  if id >= len then begin
    let grown = Array.make (max (2 * len) (id + 1)) (-1) in
    Array.blit enc.e_sid 0 grown 0 len;
    enc.e_sid <- grown
  end;
  enc.e_sid.(id) <- sid;
  sid

let[@inline] stream_id enc id =
  let sids = enc.e_sid in
  if id < Array.length sids then begin
    let sid = Array.unsafe_get sids id in
    if sid >= 0 then sid else sid_slow enc id
  end
  else sid_slow enc id

(* Locations of the access rows: each value predicted from the
   previous access of the same kind in this block (0) or the id + 1,
   written plain (mode 0) or as RLE runs (mode 1), whichever is
   smaller; a tie keeps plain. *)
let put_locs enc (kind : int array) (loc : int array) lo hi =
  let vals = enc.e_vals and pred = [| -1; -1 |] in
  let fresh = ref enc.e_next_loc in
  (* the values, and the bytes of both modes' varints ([run] equal
     values of [last] so far close the RLE count) *)
  let m = ref 0 and plain = ref 0 and rle = ref 0 in
  let last = ref (-1) and run = ref 0 in
  for i = lo to hi - 1 do
    let k = Array.unsafe_get kind i in
    if k <= tag_write then begin
      let id = stream_id enc (Array.unsafe_get loc i) in
      let v = if id = Array.unsafe_get pred k then 0 else id + 1 in
      Array.unsafe_set vals !m v;
      Array.unsafe_set pred k id;
      incr m;
      let len = varint_len v in
      plain := !plain + len;
      if v = !last then incr run
      else begin
        if !run > 0 then rle := !rle + varint_len !last + varint_len !run;
        last := v;
        run := 1
      end
    end
  done;
  if !run > 0 then rle := !rle + varint_len !last + varint_len !run;
  (* a value, then the bytes of the id it introduces if it is the next
     fresh one, then (mode 1) its run *)
  let m = !m and runs = !rle < !plain in
  reserve enc (1 + (max_pair * m));
  let s = ref enc.out and p = ref enc.len in
  put !s !p (if runs then 1 else 0);
  incr p;
  let j = ref 0 in
  while !j < m do
    let v = Array.unsafe_get vals !j in
    p := put_uvarint !s !p v;
    if v - 1 = !fresh then begin
      let name = enc.e_names.(!fresh) in
      let len = String.length name in
      (* a label's bytes, with room kept for the values still to come *)
      enc.len <- !p;
      reserve enc (max_varint + len + (max_pair * (m - !j)));
      s := enc.out;
      p := put_uvarint !s !p len;
      Bytes.unsafe_blit_string name 0 !s !p len;
      p := !p + len;
      incr fresh
    end;
    let e = if runs then run_end vals !j m else !j + 1 in
    if runs then p := put_uvarint !s !p (e - !j);
    j := e
  done;
  enc.len <- !p

(* Encode rows [lo, hi) of a batch as a block body (no length prefix)
   into the first [enc.len] bytes of [enc.out]. *)
let encode_rows enc (b : Batch.t) lo hi =
  let locs = Batch.locs b in
  if locs != enc.e_src then begin
    enc.e_src <- locs;
    Array.fill enc.e_sid 0 (Array.length enc.e_sid) (-1)
  end;
  enc.len <- 0;
  reserve enc max_varint;
  enc.len <- put_uvarint enc.out 0 (hi - lo);
  let kind = b.Batch.kind in
  put_kinds enc kind lo hi;
  put_rle enc b.Batch.a lo hi;
  put_deltas enc b.Batch.b lo hi;
  put_rle enc b.Batch.c lo hi;
  put_locs enc kind b.Batch.loc lo hi

(* Encode one batch as a block body (no length prefix): the serve 'B'
   frame payload is exactly one body. *)
let encode_body enc (b : Batch.t) =
  let n = Batch.length b in
  if n < 1 || n > block_events then
    invalid_arg "Trace_format_v2.encode_body: 1 <= batch length <= 4096 required";
  encode_rows enc b 0 n;
  Bytes.sub_string enc.out 0 enc.len

(* ------------------------------------------------------------------ *)
(* row checks and block cutting *)

(* Where blocks close.  A block holds at most [limit] rows, and closes
   before a row that would take a bound on its encoded body past
   [max_body_len]: a fixed varint allowance per row plus the bytes of
   an access's label unless it repeats the previous access's (which
   the encoder has then already interned).  A stream's [cuts] carries
   [rows], [bytes] and [last] (a label id of [last_src]) from batch to
   batch; [cut_at.(0 .. cut_n - 1)] are the rows of the last scanned
   batch before which a block closes, ascending, a row index [n]
   closing a block at the batch's end. *)
type cuts = {
  limit : int;
  mutable rows : int;
  mutable bytes : int;
  mutable last : int;
  mutable last_src : Loc_table.t;
  mutable cut_at : int array;
  mutable cut_n : int;
}

let row_bound = 64

(* [last_src] before any label: no id of it is ever [last]. *)
let no_src = Loc_table.create ()

let cuts ~rows =
  {
    limit = Int.max 1 (Int.min rows block_events);
    rows = 0;
    bytes = row_bound;
    last = -1;
    last_src = no_src;
    cut_at = [||];
    cut_n = 0;
  }

(* Check every row of [b] and find where its blocks close.  Nothing
   changes before every row has passed: the first bad row, in stream
   order, raises [Error.E (Invalid_input _)]. *)
let scan c (b : Batch.t) =
  let n = Batch.length b in
  let bad = first_bad_row b in
  let src = Batch.locs b in
  let kind = b.Batch.kind and loc = b.Batch.loc in
  if Array.length c.cut_at <= n then c.cut_at <- Array.make (n + 1) 0;
  let cut_at = c.cut_at in
  let rows = ref c.rows and bytes = ref c.bytes and cut_n = ref 0 in
  let last = ref (if src == c.last_src then c.last else -1) in
  for i = 0 to n - 1 do
    if i = bad then refuse_row b i;
    let bound =
      if Array.unsafe_get kind i <= tag_write then begin
        let id = Array.unsafe_get loc i in
        if id = !last then row_bound
        else begin
          let len = String.length (Loc_table.name src id) in
          if len > max_loc_len then refuse_row b i;
          last := id;
          row_bound + len
        end
      end
      else row_bound
    in
    if !bytes + bound <= max_body_len then begin
      incr rows;
      bytes := !bytes + bound
    end
    else begin
      Array.unsafe_set cut_at !cut_n i;
      incr cut_n;
      rows := 1;
      bytes := row_bound + bound
    end;
    if !rows = c.limit then begin
      Array.unsafe_set cut_at !cut_n (i + 1);
      incr cut_n;
      rows := 0;
      bytes := row_bound
    end
  done;
  c.rows <- !rows;
  c.bytes <- !bytes;
  c.last <- !last;
  c.last_src <- src;
  c.cut_n <- !cut_n

let encode_blocks ?(rows = block_events) enc (b : Batch.t) emit =
  let c = cuts ~rows in
  scan c b;
  let lo = ref 0 in
  let block hi =
    if hi > !lo then begin
      encode_rows enc b !lo hi;
      emit enc.out enc.len;
      lo := hi
    end
  in
  for k = 0 to c.cut_n - 1 do
    block c.cut_at.(k)
  done;
  block (Batch.length b)

(* ------------------------------------------------------------------ *)
(* writer *)

(* [cut] places the stream's blocks; [open_] holds the rows of the
   block still open when a batch ends, copied out of it (a batch is
   only valid during the call that hands it over).  A block that
   closes inside a batch and has no earlier rows is encoded straight
   from the batch. *)
type writer = {
  oc : out_channel;
  enc : block_encoder;
  cut : cuts;
  open_ : Batch.t;
  mutable count : int;
}

let create oc =
  output_string oc magic;
  output_byte oc version;
  {
    oc;
    enc = block_encoder ();
    cut = cuts ~rows:block_events;
    open_ = Batch.create ();
    count = 0;
  }

let rec output_uvarint oc v =
  if v < 0x80 then output_byte oc v
  else begin
    output_byte oc (0x80 lor (v land 0x7f));
    output_uvarint oc (v lsr 7)
  end

let output_block w (b : Batch.t) lo hi =
  encode_rows w.enc b lo hi;
  output_uvarint w.oc w.enc.len;
  output w.oc w.enc.out 0 w.enc.len

(* Rows [lo, hi) of [b] join the open block.  A stream's batches
   share one location table; [Batch.copy_row] refuses a row of
   another while the open block holds rows. *)
let keep w (b : Batch.t) lo hi =
  for i = lo to hi - 1 do
    Batch.copy_row ~src:b i ~dst:w.open_
  done

let close_block w (b : Batch.t) lo hi =
  if Batch.length w.open_ = 0 then begin
    if hi > lo then output_block w b lo hi
  end
  else begin
    keep w b lo hi;
    output_block w w.open_ 0 (Batch.length w.open_);
    Batch.clear w.open_
  end

let write_batch w (b : Batch.t) =
  scan w.cut b;
  let lo = ref 0 in
  for k = 0 to w.cut.cut_n - 1 do
    let hi = w.cut.cut_at.(k) in
    close_block w b !lo hi;
    lo := hi
  done;
  keep w b !lo (Batch.length b);
  w.count <- w.count + Batch.length b

let close w =
  if Batch.length w.open_ > 0 then
    output_block w w.open_ 0 (Batch.length w.open_);
  close_out w.oc

let batches_to_file path f =
  let oc = open_out_bin path in
  let w = create oc in
  match
    let v = f (write_batch w) in
    close w;
    v
  with
  | v -> (v, w.count)
  | exception e ->
    (* a failed producer, or a failed final flush, leaves no file: a
       flushed prefix would replay as a complete, valid-looking trace *)
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr w.oc;
    (try Sys.remove path with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

(* The event surface, a thin adapter: an event is checked as it
   arrives, so a refused one stops its producer there, and joins a
   batch that goes to the writer when full. *)
let to_file path f =
  batches_to_file path (fun write ->
      let staged = Batch.create () in
      let v =
        f (fun ev ->
            check_event ~negative_locks:true ev;
            Batch.push staged ev;
            if Batch.is_full staged then begin
              write staged;
              Batch.clear staged
            end)
      in
      if Batch.length staged > 0 then write staged;
      v)

(* ------------------------------------------------------------------ *)
(* decoding *)

(* Stream ids are dense (0 .. d_next_loc-1, each fresh id is exactly
   the next one), so [d_ids], an int array that doubles when full, maps
   them to ids of [locs], the table the decoded batches carry: a row's
   location costs one load and an int store.  [rev3] is the stream's
   block revision: 3, or 2 with its implied modes. *)
type stream_decoder = {
  path : string option;
  rev3 : bool;
  locs : Loc_table.t;
  mutable d_ids : int array;
  mutable d_next_loc : int;
  mutable events_read : int;
  mutable d_body : Bytes.t;
      (* [read_block]'s body buffer, grown to the largest body read *)
  mutable d_reads : int;
}

let stream_decoder ?path ?(revision = version) ?locs () =
  if not (readable revision) then
    invalid_arg
      (Printf.sprintf "Trace_format_v2.stream_decoder: revision %d" revision);
  {
    path;
    rev3 = revision = 3;
    locs = (match locs with Some l -> l | None -> Loc_table.create ());
    d_ids = [||];
    d_next_loc = 0;
    events_read = 0;
    d_body = Bytes.empty;
    d_reads = 0;
  }

(* Number a fresh stream id: intern its label, once per stream. *)
let add_loc dec s =
  let sid = dec.d_next_loc in
  if sid = Array.length dec.d_ids then begin
    let grown = Array.make (Int.max 16 (2 * sid)) Loc_table.empty in
    Array.blit dec.d_ids 0 grown 0 sid;
    dec.d_ids <- grown
  end;
  let id = Loc_table.intern_once dec.locs s in
  Array.unsafe_set dec.d_ids sid id;
  dec.d_next_loc <- sid + 1;
  id

(* In-body cursor over the first [lim] bytes of [s]; [Corrupt] carries
   the reason, the caller maps it to an [Error.Corrupt_trace] at the
   cursor's absolute offset.  The hot column loops keep the position
   in a local ref (a register) and store it back into [pos] before
   anything that raises or reads through the cursor. *)
type cursor = { s : Bytes.t; lim : int; mutable pos : int }

let[@inline] cur_byte cur =
  let p = cur.pos in
  if p >= cur.lim then raise (Corrupt "truncated block");
  cur.pos <- p + 1;
  Char.code (Bytes.unsafe_get cur.s p)

(* [Corrupt reason] with the cursor at [p]. *)
let corrupt_at cur p reason =
  cur.pos <- p;
  raise (Corrupt reason)

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

(* The slow reads from position [p] of a register-held cursor; the
   position after the varint is left in [cur.pos]. *)
let varint_at cur p =
  cur.pos <- p;
  varint_slow cur

let uvarint_at cur p =
  cur.pos <- p;
  varint_loop cur 0 0

(* The one-byte varint at [q] of [s], or -1 when the varint there is
   longer or runs past [lim]: the register-cursor loops' inline read. *)
let[@inline] short_varint s lim q =
  if q < lim then begin
    let x = Char.code (Bytes.unsafe_get s q) in
    if x < 0x80 then x else -1
  end
  else -1

(* Most varints are one byte (RLE runs of 1, small deltas, location
   ids): read those inline; anything else, including a truncated
   body, takes the loop, which raises exactly as a full read would. *)
let[@inline] cur_varint cur =
  let v = short_varint cur.s cur.lim cur.pos in
  if v >= 0 then begin
    cur.pos <- cur.pos + 1;
    v
  end
  else varint_slow cur

let cur_take cur len =
  if len > cur.lim - cur.pos then raise (Corrupt "truncated block");
  let s = Bytes.sub_string cur.s cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* The b column's errors, at position [p]. *)
let bad_address cur p v =
  corrupt_at cur p
    (if v < 0 then "negative address"
     else Printf.sprintf "address %d out of range" v)

let bad_tid cur p v = corrupt_at cur p (Printf.sprintf "tid %d out of range" v)

(* A fresh location's length and bytes, at the cursor; its table id. *)
let fresh_loc dec cur =
  let len = cur_varint cur in
  if len > max_loc_len then
    raise (Corrupt (Printf.sprintf "location length %d out of range" len));
  add_loc dec (cur_take cur len)

let mode_byte dec cur column =
  if dec.rev3 then begin
    let m = cur_byte cur in
    if m > 1 then raise (Corrupt (Printf.sprintf "%s column mode %d" column m));
    m
  end
  else 0

let no_repeat = "location repeat before any access of its kind"

(* No location yet: no table id is negative. *)
let none = -1

(* The table id a stream id [sid] read up to position [p] names; the
   cursor is left after it and, for a fresh id, after its string. *)
let named_sid dec cur p sid =
  cur.pos <- p;
  if sid > dec.d_next_loc then
    raise (Corrupt (Printf.sprintf "location id %d from the future" sid));
  if sid < dec.d_next_loc then Array.unsafe_get dec.d_ids sid
  else fresh_loc dec cur

(* The table id a value read up to position [p] names, [none] for a
   revision-3 prediction. *)
let named dec cur p v =
  if v = 0 && dec.rev3 then begin
    cur.pos <- p;
    none
  end
  else named_sid dec cur p (if dec.rev3 then v - 1 else v)

(* Fills the [r] access rows from row [i] on: a read gets [nr], a
   write [nw], the rows between them 0.  Returns the row after the
   last; [dec.d_reads] is how many of the [r] were reads. *)
let fill_run dec kind (loc : int array) i r nr nw =
  let i = ref i and r = ref r and reads = ref 0 in
  while !r > 0 do
    let k = Array.unsafe_get kind !i in
    let id =
      if k <= tag_write then begin
        reads := !reads + (1 - k);
        decr r;
        if k = tag_read then nr else nw
      end
      else Loc_table.empty
    in
    Array.unsafe_set loc !i id;
    incr i
  done;
  dec.d_reads <- !reads;
  !i

(* [fill_run] for a run of 0s once the block has had a read and a
   write: nothing to count, the common case. *)
let fill_known kind (loc : int array) i r nr nw =
  let i = ref i and r = ref r in
  while !r > 0 do
    let k = Array.unsafe_get kind !i in
    let id =
      if k <= tag_write then begin
        decr r;
        if k = tag_read then nr else nw
      end
      else Loc_table.empty
    in
    Array.unsafe_set loc !i id;
    incr i
  done;
  !i

(* The b column (addrs/locks/children): a zigzag delta per row; a
   lock id may be any int, every other value lies in
   [0 .. max_addr].  Addresses jump far often enough that longer
   varints are read inline too, when all nine bytes a varint may take
   lie in the body; the loop reads any other, a tenth byte included,
   and raises as a full read would. *)
let b_column cur (kind : int array) (b : int array) n =
  let s = cur.s and lim = cur.lim in
  let p = ref cur.pos in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let q = !p in
    let z =
      if q + 9 <= lim then begin
        let x = Char.code (Bytes.unsafe_get s q) in
        if x < 0x80 then begin
          p := q + 1;
          x
        end
        else begin
          let acc = ref (x land 0x7f) and q' = ref (q + 1) and shift = ref 7 in
          let x = ref (Char.code (Bytes.unsafe_get s !q')) in
          while !x >= 0x80 && !shift < 56 do
            acc := !acc lor ((!x land 0x7f) lsl !shift);
            shift := !shift + 7;
            incr q';
            x := Char.code (Bytes.unsafe_get s !q')
          done;
          if !x < 0x80 then begin
            p := !q' + 1;
            !acc lor (!x lsl !shift)
          end
          else begin
            let z = uvarint_at cur q in
            p := cur.pos;
            z
          end
        end
      end
      else begin
        let z = uvarint_at cur q in
        p := cur.pos;
        z
      end
    in
    let v = !prev + unzigzag z in
    let k = Array.unsafe_get kind i in
    if v lsr addr_bits <> 0 && k <> tag_acquire && k <> tag_release then
      bad_address cur !p v;
    if (k = tag_fork || k = tag_join) && v > max_tid then
      bad_tid cur !p v;
    Array.unsafe_set b i v;
    prev := v
  done;
  cur.pos <- !p

(* Kinds, RLE (mode 0): (tag byte, varint run) pairs. *)
let kinds_rle cur (kind : int array) n =
  let s = cur.s and lim = cur.lim in
  let p = ref cur.pos and i = ref 0 in
  while !i < n do
    let q = !p in
    if q >= lim then corrupt_at cur q "truncated block";
    let tag = Char.code (Bytes.unsafe_get s q) in
    p := q + 1;
    if tag > max_tag then
      corrupt_at cur !p (Printf.sprintf "unknown tag %d" tag);
    let run = short_varint s lim !p in
    let run =
      if run >= 0 then (incr p; run)
      else (let run = varint_at cur !p in p := cur.pos; run)
    in
    if run < 1 || run > n - !i then corrupt_at cur !p "kind run out of range";
    for j = !i to !i + run - 1 do
      Array.unsafe_set kind j tag
    done;
    i := !i + run
  done;
  cur.pos <- !p

(* Kinds, packed (mode 1): two tags a byte, low nibble first, and a
   last high nibble of 0 when [n] is odd. *)
let kinds_nibbles cur (kind : int array) n =
  let s = cur.s and lim = cur.lim in
  let p = ref cur.pos and i = ref 0 in
  while !i < n do
    let q = !p in
    if q >= lim then corrupt_at cur q "truncated block";
    let x = Char.code (Bytes.unsafe_get s q) in
    p := q + 1;
    let lo = x land 0xf and hi = x lsr 4 in
    if lo > max_tag then corrupt_at cur !p (Printf.sprintf "unknown tag %d" lo);
    Array.unsafe_set kind !i lo;
    if !i + 1 < n then begin
      if hi > max_tag then
        corrupt_at cur !p (Printf.sprintf "unknown tag %d" hi);
      Array.unsafe_set kind (!i + 1) hi
    end
    else if hi <> 0 then
      corrupt_at cur !p (Printf.sprintf "kind padding nibble %d" hi);
    i := !i + 2
  done;
  cur.pos <- !p

(* The a column (tids/parents). *)
let a_column cur (a : int array) n =
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
  done

(* The c column (sizes/sync codes); a value <= 3 is valid for every
   kind. *)
let c_column cur (kind : int array) (c : int array) n =
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
  done

(* Revision-2 locations: one stream id per access row, a known one
   looked up inline. *)
let locs_rev2 dec cur (kind : int array) (loc : int array) n =
  let s = cur.s and lim = cur.lim in
  let p = ref cur.pos in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get kind i in
    let id =
      if k > tag_write then Loc_table.empty
      else begin
        let v = short_varint s lim !p in
        let v =
          if v >= 0 then (incr p; v)
          else (let v = varint_at cur !p in p := cur.pos; v)
        in
        if v < dec.d_next_loc then Array.unsafe_get dec.d_ids v
        else (let id = named_sid dec cur !p v in p := cur.pos; id)
      end
    in
    Array.unsafe_set loc i id
  done;
  cur.pos <- !p

(* Revision-3 locations, plain (mode 0): one value per access row; a
   known id is looked up inline.  [prev_r]/[prev_w] are what a 0
   repeats. *)
let locs_plain dec cur (kind : int array) (loc : int array) n =
  let s = cur.s and lim = cur.lim in
  let p = ref cur.pos and prev_r = ref none and prev_w = ref none in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get kind i in
    let id =
      if k > tag_write then Loc_table.empty
      else begin
        let v = short_varint s lim !p in
        let v =
          if v >= 0 then (incr p; v)
          else (let v = varint_at cur !p in p := cur.pos; v)
        in
        if v = 0 then begin
          let id = if k = tag_read then !prev_r else !prev_w in
          if id = none then corrupt_at cur !p no_repeat;
          id
        end
        else begin
          let id =
            if v <= dec.d_next_loc then Array.unsafe_get dec.d_ids (v - 1)
            else (let id = named_sid dec cur !p (v - 1) in p := cur.pos; id)
          in
          if k = tag_read then prev_r := id else prev_w := id;
          id
        end
      end
    in
    Array.unsafe_set loc i id
  done;
  cur.pos <- !p

(* Locations, RLE (mode 1): runs of one value over the access rows.
   [prev_r]/[prev_w] are what a read and a write of a run of 0s get:
   the block's previous read's and write's location, [none] before
   the first; [left] counts the access rows no run has claimed yet. *)
let locs_runs dec cur (kind : int array) (loc : int array) n =
  let prev_r = ref none and prev_w = ref none in
  let left = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get kind i <= tag_write then incr left
  done;
  let i = ref 0 in
  while !left > 0 do
    let v = cur_varint cur in
    let id = named dec cur cur.pos v in
    let r = cur_varint cur in
    if r < 1 || r > !left then raise (Corrupt "location run out of range");
    left := !left - r;
    if id = none && !prev_r <> none && !prev_w <> none then
      i := fill_known kind loc !i r !prev_r !prev_w
    else if id = none then begin
      i := fill_run dec kind loc !i r !prev_r !prev_w;
      if (dec.d_reads > 0 && !prev_r = none)
         || (dec.d_reads < r && !prev_w = none)
      then raise (Corrupt no_repeat)
    end
    else begin
      (* the run's reads and writes get [id], which the next 0 then
         repeats for each kind the run had *)
      i := fill_run dec kind loc !i r id id;
      if dec.d_reads > 0 then prev_r := id;
      if dec.d_reads < r then prev_w := id
    end
  done;
  Array.fill loc !i (n - !i) Loc_table.empty

(* Decode one block body into [batch].  [base] is the body's absolute
   offset in the stream, used for error offsets.  Rows get
   [off = events_read + i]: a monotone stream position, which race
   reports carry as their order key.

   Every check runs in the order of the reference decoder kept in
   test/v2_oracle.ml, so a corrupt body fails with the same offset,
   reason and events_read; run bounds are compared as [run > n - i]
   so a huge varint cannot overflow past them.  Each row's location
   is stored once, as an id of the decoder's table, which the batch
   then carries.  One function per column keeps each loop's state in
   registers. *)
let decode_rows dec cur (batch : Batch.t) =
  let n = cur_varint cur in
  if n < 1 || n > block_events then
    raise (Corrupt (Printf.sprintf "block event count %d out of range" n));
  if n > Batch.capacity batch then
    invalid_arg "Trace_format_v2.decode_body: batch capacity too small";
  batch.Batch.len <- 0;
  batch.Batch.locs <- dec.locs;
  let kind = batch.Batch.kind in
  if mode_byte dec cur "kind" = 1 then kinds_nibbles cur kind n
  else kinds_rle cur kind n;
  a_column cur batch.Batch.a n;
  b_column cur kind batch.Batch.b n;
  c_column cur kind batch.Batch.c n;
  if not dec.rev3 then locs_rev2 dec cur kind batch.Batch.loc n
  else if mode_byte dec cur "location" = 1 then
    locs_runs dec cur kind batch.Batch.loc n
  else locs_plain dec cur kind batch.Batch.loc n;
  if cur.pos <> cur.lim then raise (Corrupt "trailing bytes in block");
  n

(* Decode the body in the first [len] bytes of [body]. *)
let decode_exn dec ~base body len (batch : Batch.t) =
  let cur = { s = body; lim = len; pos = 0 } in
  match decode_rows dec cur batch with
  | n ->
    let off = batch.Batch.off in
    let first = dec.events_read in
    for i = 0 to n - 1 do
      Array.unsafe_set off i (first + i)
    done;
    batch.Batch.len <- n;
    dec.events_read <- first + n
  | exception Corrupt reason ->
    (* once rows are being overwritten the batch reads as empty *)
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
  match
    decode_exn dec ~base (Bytes.unsafe_of_string body) (String.length body)
      batch
  with
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
    if not (readable v) then
      fail ~offset:(String.length magic)
        (Printf.sprintf "unsupported version %d" v);
    v

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
    (* the body lands in the decoder's own buffer, not a fresh string
       per block *)
    if body_len > Bytes.length dec.d_body then
      dec.d_body <- Bytes.create (max body_len (2 * Bytes.length dec.d_body));
    (match really_input ic dec.d_body 0 body_len with
     | exception End_of_file -> corrupt "truncated block"
     | () -> ());
    decode_exn dec ~base dec.d_body body_len batch;
    true

(* Fold over blocks decoded into a single reused batch: the batched
   replay hot path.  The batch passed to [f] is overwritten by the
   next block — consume it before returning.  [wrap_decode] runs
   around each block's read and decode (a tracing span). *)
let fold_batches ?wrap_decode ?locs path f init =
  let ic = open_in_bin path in
  let run () =
    let revision = check_header ~path ic in
    let dec = stream_decoder ~path ~revision ?locs () in
    let batch = Batch.create () in
    let next =
      match wrap_decode with
      | None -> fun () -> read_block dec ic batch
      | Some wrap -> fun () -> wrap (fun () -> read_block dec ic batch)
    in
    let rec loop acc = if next () then loop (f acc batch) else acc in
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
  let revision = check_header ?path ic in
  let dec = stream_decoder ?path ~revision () in
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
