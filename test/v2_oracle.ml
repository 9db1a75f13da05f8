(* Reference v2 block decoder: the straightforward Hashtbl-and-closure
   decoder that Trace_format_v2's table-driven one replaced, kept
   verbatim as the oracle for the decoder law in test_trace_v2.  It
   must give the same rows, or the same Corrupt_trace (offset, reason,
   events_read), on every input. *)

open Dgrace_events
open Dgrace_trace
open Trace_format
module Error = Dgrace_resilience.Error

let block_events = Trace_format_v2.block_events
let max_body_len = Trace_format_v2.max_body_len

(* The b column's zigzag is a bijection on every int: even codes are
   the non-negative deltas, odd codes the negative ones. *)
let unzigzag z = if z land 1 = 0 then z lsr 1 else lnot (z lsr 1)

type stream_decoder = {
  path : string option;
  d_locs : (int, string) Hashtbl.t;
  mutable d_next_loc : int;
  mutable events_read : int;
}

let stream_decoder ?path () =
  { path; d_locs = Hashtbl.create 64; d_next_loc = 0; events_read = 0 }

(* In-body cursor; [Corrupt] carries the reason, the caller maps it to
   an [Error.Corrupt_trace] at the cursor's absolute offset. *)
type cursor = { s : string; mutable pos : int }

let cur_byte cur =
  if cur.pos >= String.length cur.s then raise (Corrupt "truncated block");
  let b = Char.code (String.unsafe_get cur.s cur.pos) in
  cur.pos <- cur.pos + 1;
  b

(* All 63 bits, read as unsigned: the b column's varints. *)
let cur_uvarint cur =
  let rec loop acc shift =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = cur_byte cur in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop acc (shift + 7)
  in
  loop 0 0

let cur_varint cur =
  let n = cur_uvarint cur in
  if n < 0 then raise (Corrupt "varint overflow") else n

let cur_take cur len =
  if cur.pos + len > String.length cur.s then raise (Corrupt "truncated block");
  let s = String.sub cur.s cur.pos len in
  cur.pos <- cur.pos + len;
  s

(* Decode one block body into [batch] (cleared first).  [base] is the
   body's absolute offset in the stream, used for error offsets.  Rows
   get [off = events_read + i]: a monotone stream position, the same
   order key the shard splitter uses, so races merge identically. *)
let decode_body_exn dec ~base body (batch : Batch.t) =
  let cur = { s = body; pos = 0 } in
  let corrupt reason =
    raise
      (Error.E
         (Error.Corrupt_trace
            {
              path = dec.path;
              offset = base + cur.pos;
              events_read = dec.events_read;
              reason;
            }))
  in
  try
    let n = cur_varint cur in
    if n < 1 || n > block_events then
      raise (Corrupt (Printf.sprintf "block event count %d out of range" n));
    if n > Batch.capacity batch then
      invalid_arg "Trace_format_v2.decode_body: batch capacity too small";
    Batch.clear batch;
    let kind = batch.Batch.kind
    and a = batch.Batch.a
    and b = batch.Batch.b
    and c = batch.Batch.c
    and loc = batch.Batch.loc
    and off = batch.Batch.off in
    (* kinds *)
    let i = ref 0 in
    while !i < n do
      let tag = cur_byte cur in
      if tag > max_tag then
        raise (Corrupt (Printf.sprintf "unknown tag %d" tag));
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "kind run out of range");
      Array.fill kind !i run tag;
      i := !i + run
    done;
    (* a column (tids/parents) *)
    let i = ref 0 in
    while !i < n do
      let v = cur_varint cur in
      if v > max_tid then
        raise (Corrupt (Printf.sprintf "tid %d out of range" v));
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "tid run out of range");
      Array.fill a !i run v;
      i := !i + run
    done;
    (* b column (addrs/locks/children), wrapping zigzag deltas; only
       a lock id may lie outside [0 .. max_addr] *)
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let v = !prev + unzigzag (cur_uvarint cur) in
      if (v < 0 || v > max_addr)
         && kind.(i) <> tag_acquire && kind.(i) <> tag_release
      then
        raise
          (Corrupt
             (if v < 0 then "negative address"
              else Printf.sprintf "address %d out of range" v));
      if (kind.(i) = tag_fork || kind.(i) = tag_join) && v > max_tid then
        raise (Corrupt (Printf.sprintf "tid %d out of range" v));
      b.(i) <- v;
      prev := v
    done;
    (* c column (sizes/sync codes) *)
    let i = ref 0 in
    while !i < n do
      let v = cur_varint cur in
      let run = cur_varint cur in
      if run < 1 || !i + run > n then raise (Corrupt "size run out of range");
      for j = !i to !i + run - 1 do
        let k = kind.(j) in
        if k = tag_acquire || k = tag_release then begin
          if v > 3 then raise (Corrupt (Printf.sprintf "bad sync kind %d" v))
        end
        else if v > max_access_size then
          raise (Corrupt (Printf.sprintf "size %d out of range" v));
        c.(j) <- v
      done;
      i := !i + run
    done;
    (* locations, access rows only *)
    for i = 0 to n - 1 do
      if kind.(i) <= tag_write then begin
        let id = cur_varint cur in
        if id < dec.d_next_loc then loc.(i) <- Hashtbl.find dec.d_locs id
        else if id = dec.d_next_loc then begin
          let len = cur_varint cur in
          if len > max_loc_len then
            raise (Corrupt (Printf.sprintf "location length %d out of range" len));
          let s = cur_take cur len in
          Hashtbl.replace dec.d_locs id s;
          dec.d_next_loc <- id + 1;
          loc.(i) <- s
        end
        else raise (Corrupt (Printf.sprintf "location id %d from the future" id))
      end
      else loc.(i) <- ""
    done;
    if cur.pos <> String.length body then
      raise (Corrupt "trailing bytes in block");
    for i = 0 to n - 1 do
      off.(i) <- dec.events_read + i
    done;
    batch.Batch.len <- n;
    dec.events_read <- dec.events_read + n
  with Corrupt reason -> corrupt reason

let decode_body dec ~base body batch =
  match decode_body_exn dec ~base body batch with
  | () -> Ok ()
  | exception Error.E e -> Error e

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

(* The library's fold_batches over this decoder.  The law runs it on
   thousands of tiny files, so it decodes into one batch. *)
let fold_batch = Batch.create ()

let fold_batches path f init =
  let ic = open_in_bin path in
  let run () =
    Trace_format_v2.check_header ~path ic;
    let dec = stream_decoder ~path () in
    let batch = fold_batch in
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
