(* Trace format v2 (blocked column encoding): round-trip laws, v1
   interchange, batched replay agreement, and the strict corruption
   contract — every truncation yields a structured [Corrupt_trace]
   with a sane absolute offset, never a bare exception. *)

open Dgrace_events
open Dgrace_trace
module Error = Dgrace_resilience.Error
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec

let tmp_file () = Filename.temp_file "dgrace" ".trace"

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let strings = List.map Event.to_string

let v2_roundtrip events =
  let path = tmp_file () in
  let (), n =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  let back = Trace_format_v2.read_file path in
  Sys.remove path;
  (n, back)

(* Deterministic mixed stream, long enough to span several blocks when
   repeated: every tag, repeated tids/locs (RLE-friendly) and strided
   addrs (delta-friendly) plus breaks in both. *)
let sample_events =
  [
    Event.Fork { parent = 0; child = 1 };
    Event.Alloc { tid = 0; addr = 0x1000; size = 64 };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 4; loc = "init" };
    Event.Access { tid = 0; kind = Write; addr = 0x1004; size = 4; loc = "init" };
    Event.Access { tid = 0; kind = Write; addr = 0x1008; size = 4; loc = "init" };
    Event.Acquire { tid = 1; lock = 3; sync = Event.Lock };
    Event.Access { tid = 1; kind = Read; addr = 0x9000; size = 1; loc = "worker" };
    Event.Access { tid = 1; kind = Read; addr = 0x1001; size = 2; loc = "worker" };
    Event.Release { tid = 1; lock = 3; sync = Event.Lock };
    Event.Acquire { tid = 1; lock = 9; sync = Event.Barrier };
    Event.Release { tid = 0; lock = 10; sync = Event.Flag };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 8; loc = "" };
    Event.Free { tid = 0; addr = 0x1000; size = 64 };
    Event.Join { parent = 0; child = 1 };
    Event.Thread_exit { tid = 1 };
  ]

let test_roundtrip () =
  let n, back = v2_roundtrip sample_events in
  Alcotest.(check int) "count" (List.length sample_events) n;
  Alcotest.(check (list string)) "identical" (strings sample_events)
    (strings back)

let test_empty () =
  let n, back = v2_roundtrip [] in
  Alcotest.(check int) "count" 0 n;
  Alcotest.(check (list string)) "no events" [] (strings back)

let test_multi_block () =
  (* more than one block's worth of rows, so block boundaries, the
     cross-block location table, and the running row numbering are all
     exercised *)
  let reps = (Trace_format_v2.block_events / List.length sample_events) + 2 in
  let events =
    List.concat (List.init reps (fun _ -> sample_events))
  in
  let n, back = v2_roundtrip events in
  Alcotest.(check int) "count" (List.length events) n;
  Alcotest.(check bool) "identical" true (strings events = strings back)

let test_fold_batches_offsets () =
  let path = tmp_file () in
  let reps = (Trace_format_v2.block_events / List.length sample_events) + 2 in
  let events = List.concat (List.init reps (fun _ -> sample_events)) in
  let (), total =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  (* rows are numbered by stream position, monotonically across blocks *)
  let next = ref 0 in
  let batches = ref 0 in
  Trace_format_v2.fold_batches path
    (fun () b ->
      incr batches;
      for i = 0 to Batch.length b - 1 do
        if b.Batch.off.(i) <> !next then
          Alcotest.failf "row %d numbered %d" !next b.Batch.off.(i);
        incr next
      done)
    ();
  Sys.remove path;
  Alcotest.(check int) "every row numbered" total !next;
  Alcotest.(check bool) "spans several blocks" true (!batches > 1)

(* v1 -> v2 interchange: converting a v1 stream and replaying it
   batched gives bit-identical races to the v1 per-event replay. *)
let test_v1_interchange () =
  let v1 = tmp_file () and v2 = tmp_file () in
  let racy =
    [
      Event.Fork { parent = 0; child = 1 };
      Event.Access { tid = 0; kind = Write; addr = 0x40; size = 4; loc = "a" };
      Event.Access { tid = 1; kind = Write; addr = 0x40; size = 4; loc = "b" };
      Event.Thread_exit { tid = 1 };
      Event.Join { parent = 0; child = 1 };
    ]
  in
  let (), _ = Trace_writer.to_file v1 (fun sink -> List.iter sink racy) in
  let events = Trace_reader.read_file v1 in
  let (), _ =
    Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
  in
  Alcotest.(check int) "v1 is v1" 1 (Trace_reader.probe_version v1);
  Alcotest.(check int) "v2 is revision 3" Trace_format_v2.version
    (Trace_reader.probe_version v2);
  let per_event = Tutil.(analyze (config Spec.dynamic) (event_list events)) in
  let batched = Tutil.(analyze (config Spec.dynamic) (v2_batches v2)) in
  Sys.remove v1;
  Sys.remove v2;
  Alcotest.(check (list string))
    "race-bit-identical"
    (List.map Report.to_string per_event.races)
    (List.map Report.to_string batched.races);
  Alcotest.(check int) "the seeded race" 1 batched.race_count

(* Strict corruption contract: a v2 file cut at EVERY byte offset
   either decodes cleanly (a cut at a block boundary is a valid
   shorter stream) or fails with [Corrupt_trace] carrying an absolute
   offset inside the file — never a bare exception, and never events
   beyond the cut. *)
let test_truncate_every_offset () =
  let path = tmp_file () in
  let (), total =
    Trace_format_v2.to_file path (fun sink ->
        for _ = 1 to 3 do List.iter sink sample_events done)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let len = String.length full in
  let cut_path = tmp_file () in
  let clean_cuts = ref 0 in
  for cut = 0 to len - 1 do
    write_file cut_path (String.sub full 0 cut);
    match Trace_format_v2.read_file cut_path with
    | events ->
      incr clean_cuts;
      if List.length events > total then
        Alcotest.failf "cut at %d: more events than written" cut
    | exception Error.E (Error.Corrupt_trace c) ->
      if c.offset < 0 || c.offset > cut then
        Alcotest.failf "cut at %d: offset %d outside the prefix" cut c.offset;
      if c.events_read < 0 || c.events_read > total then
        Alcotest.failf "cut at %d: events_read %d out of range" cut
          c.events_read
    | exception exn ->
      Alcotest.failf "cut at %d: unstructured exception %s" cut
        (Printexc.to_string exn)
  done;
  Sys.remove cut_path;
  (* at least the empty-body boundary after the header decodes *)
  Alcotest.(check bool) "some cuts are clean EOFs" true (!clean_cuts >= 1)

let test_corrupt_block_offset () =
  (* flip a byte inside the first block body: the error's absolute
     offset must point at or after the header, inside the file *)
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink -> List.iter sink sample_events)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let bytes = Bytes.of_string full in
  Bytes.set bytes (Bytes.length bytes - 3) '\xff';
  write_file path (Bytes.to_string bytes);
  (match Trace_format_v2.read_file path with
   | _ -> ()  (* a flipped byte can decode as different valid columns *)
   | exception Error.E (Error.Corrupt_trace c) ->
     Alcotest.(check bool) "offset inside the file" true
       (c.offset >= 5 && c.offset <= String.length full)
   | exception exn ->
     Alcotest.failf "unstructured exception %s" (Printexc.to_string exn));
  Sys.remove path

(* A run varint near max_int must not overflow past the run bound:
   kinds (read, run 1) then (read, run max_int) in a 2-row block is a
   Corrupt_trace at the offending run, not an Array.fill exception —
   in a revision-2 body and in a revision-3 one (RLE mode byte). *)
let test_huge_run_rejected () =
  List.iter
    (fun revision ->
      let buf = Buffer.create 16 in
      Trace_format.write_varint buf 2;
      if revision = 3 then Buffer.add_char buf '\000';
      Buffer.add_char buf (Char.chr Trace_format.tag_read);
      Trace_format.write_varint buf 1;
      Buffer.add_char buf (Char.chr Trace_format.tag_read);
      Trace_format.write_varint buf max_int;
      let body = Buffer.contents buf in
      let dec = Trace_format_v2.stream_decoder ~revision () in
      match
        Trace_format_v2.decode_body dec ~base:100 body (Batch.create ())
      with
      | Ok () -> Alcotest.fail "a run past the block decoded"
      | Error (Error.Corrupt_trace c) ->
        Alcotest.(check string) "reason" "kind run out of range" c.reason;
        Alcotest.(check int) "offset" (100 + String.length body) c.offset
      | Error e -> Alcotest.failf "unexpected %s" (Error.to_string e))
    [ 2; 3 ]

(* doc/trace.md's worked example, byte for byte: a stencil's twelve
   accesses take nibble kinds and run-length locations. *)
let test_doc_example () =
  let events =
    List.concat
      (List.init 4 (fun i ->
           [
             Event.Access
               { tid = 1; kind = Read; addr = 0x100 + (4 * i); size = 4; loc = "s.c:7" };
             Event.Access
               { tid = 1; kind = Read; addr = 0x104 + (4 * i); size = 4; loc = "s.c:7" };
             Event.Access
               { tid = 1; kind = Write; addr = 0x180 + (4 * i); size = 4; loc = "s.c:8" };
           ]))
  in
  let body =
    Trace_format_v2.encode_body (Trace_format_v2.block_encoder ())
      (Batch.of_events events)
  in
  let hex =
    String.concat " "
      (List.of_seq
         (Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
            (String.to_seq body)))
  in
  Alcotest.(check string) "body"
    ("0c 01 00 01 10 00 01 10 01 0c 80 04 08 f8 01 f7 01 08 f8 01 f7 01 08 f8 "
   ^ "01 f7 01 08 f8 01 04 0c 01 01 05 73 2e 63 3a 37 01 00 01 02 05 73 2e 63 "
   ^ "3a 38 01 00 09")
    hex;
  let back = Batch.create () in
  (match
     Trace_format_v2.decode_body (Trace_format_v2.stream_decoder ()) ~base:0
       body back
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e));
  Alcotest.(check (list string)) "decodes" (strings events)
    (strings (List.init (Batch.length back) (Batch.event back)))

(* A revision-3 mode byte is 0 or 1; any other value in either moded
   column is a Corrupt_trace at the byte after it. *)
let test_bad_mode_rejected () =
  let body ~kind_mode ~loc_mode =
    (* one write row: kinds, a, b, c, then its location (fresh id 0) *)
    let buf = Buffer.create 16 in
    let varint = Trace_format.write_varint buf in
    varint 1;
    Buffer.add_char buf (Char.chr kind_mode);
    if kind_mode = 0 then (varint Trace_format.tag_write; varint 1)
    else Buffer.add_char buf (Char.chr Trace_format.tag_write);
    List.iter varint [ 0; 1; 0x80; 4; 1 ];
    let loc_at = Buffer.length buf in
    Buffer.add_char buf (Char.chr loc_mode);
    List.iter varint [ 1; 1; Char.code 'x' ];
    if loc_mode = 1 then varint 1;
    (Buffer.contents buf, loc_at)
  in
  let decode (s, _) =
    Trace_format_v2.decode_body (Trace_format_v2.stream_decoder ()) ~base:0 s
      (Batch.create ())
  in
  List.iter
    (fun (kind_mode, loc_mode) ->
      match decode (body ~kind_mode ~loc_mode) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "modes %d/%d: %s" kind_mode loc_mode (Error.to_string e))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  List.iter
    (fun (kind_mode, loc_mode, reason, at) ->
      match decode (body ~kind_mode ~loc_mode) with
      | Ok () -> Alcotest.failf "%s decoded" reason
      | Error (Error.Corrupt_trace c) ->
        Alcotest.(check string) "reason" reason c.reason;
        Alcotest.(check int) (reason ^ ": offset") at c.offset
      | Error e -> Alcotest.failf "unexpected %s" (Error.to_string e))
    [
      (2, 0, "kind column mode 2", 2);
      (0xff, 0, "kind column mode 255", 2);
      (0, 2, "location column mode 2", snd (body ~kind_mode:0 ~loc_mode:2) + 1);
      (1, 0x80, "location column mode 128",
       snd (body ~kind_mode:1 ~loc_mode:0x80) + 1);
    ]

(* The writer enforces the reader's bounds, so every trace it records
   replays: a location longer than [max_loc_len] is refused when it is
   written, with a structured error ... *)
let test_long_location_rejected () =
  let path = tmp_file () in
  let long = String.make (Trace_format.max_loc_len + 1) 'x' in
  (match
     Trace_format_v2.to_file path (fun sink ->
         List.iter sink sample_events;
         sink
           (Event.Access
              { tid = 0; kind = Write; addr = 0x40; size = 4; loc = long }))
   with
   | _ -> Alcotest.fail "an over-long location was recorded"
   | exception Error.E (Error.Invalid_input { what; _ }) ->
     Alcotest.(check string) "what" "trace location" what);
  (* ... and the refused recording leaves no file behind *)
  Alcotest.(check bool) "no file left" false (Sys.file_exists path)

(* A producer that raises part-way leaves no file with either writer:
   several blocks (v2) or buffer flushes (v1) were already written, and
   closing them would leave a valid-looking trace of the prefix. *)
let test_failed_producer_leaves_no_file () =
  List.iter
    (fun (name, to_file) ->
      let path = tmp_file () in
      (match
         to_file path (fun sink ->
             for _ = 1 to 3000 do
               List.iter sink sample_events
             done;
             failwith "producer died")
       with
       | _ -> Alcotest.failf "%s: the producer's failure was swallowed" name
       | exception Failure msg ->
         Alcotest.(check string) (name ^ ": exception kept") "producer died" msg);
      Alcotest.(check bool) (name ^ ": no file left") false (Sys.file_exists path))
    [ ("v1", Trace_writer.to_file); ("v2", Trace_format_v2.to_file) ]

(* ... and a block closes early rather than outgrow [max_body_len]:
   4096 fresh 5 KB locations would make a 20 MB body. *)
let test_oversized_block_split () =
  let path = tmp_file () in
  let events =
    List.init Trace_format_v2.block_events (fun i ->
        Event.Access
          {
            tid = 0;
            kind = Read;
            addr = 8 * i;
            size = 8;
            loc = Printf.sprintf "%05d%s" i (String.make 5000 'l');
          })
  in
  let (), n =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  Alcotest.(check int) "all written" Trace_format_v2.block_events n;
  let blocks =
    Trace_format_v2.fold_batches path (fun k _ -> k + 1) 0
  in
  Alcotest.(check bool) "closed early" true (blocks > 1);
  Alcotest.(check bool) "round-trips" true
    (strings events = strings (Trace_format_v2.read_file path));
  Sys.remove path

(* Decoder oracle law: the table-driven decoder and the reference one
   kept in V2_oracle give the same rows in all six columns, or the
   same Corrupt_trace (offset, reason, events_read), on every
   truncation and every single-byte xor (1, 0x80, 0xff) of a valid
   stream — through fold_batches (files) and through decode_body (the
   serve path, one body at a time). *)

type row = int * int * int * int * string * int

type outcome =
  | Decoded of row array list
  | Failed of row array list * Error.t
  | Raised of row array list * string

let rows (b : Batch.t) : row array =
  Array.init (Batch.length b) (fun i ->
      (* locations compare as the strings their ids name *)
      ( b.kind.(i), b.a.(i), b.b.(i), b.c.(i),
        Loc_table.name (Batch.locs b) b.loc.(i), b.off.(i) ))

let describe = function
  | Decoded bs -> Printf.sprintf "decoded %d blocks" (List.length bs)
  | Failed (bs, e) ->
    Format.asprintf "%d blocks, then %a" (List.length bs)
      Dgrace_resilience.Error.pp e
  | Raised (bs, exn) ->
    Printf.sprintf "%d blocks, then raised %s" (List.length bs) exn

let via_fold fold path =
  let seen = ref [] in
  match fold path (fun () b -> seen := rows b :: !seen) () with
  | () -> Decoded (List.rev !seen)
  | exception Error.E e -> Failed (List.rev !seen, e)
  | exception exn -> Raised (List.rev !seen, Printexc.to_string exn)

(* decode bodies in order through one stream decoder into [batch] *)
let via_bodies decode batch bodies =
  let rec go seen = function
    | [] -> Decoded (List.rev seen)
    | (base, body) :: rest -> (
      match decode ~base body batch with
      | Ok () -> go (rows batch :: seen) rest
      | Error e -> Failed (List.rev seen, e)
      | exception exn -> Raised (List.rev seen, Printexc.to_string exn))
  in
  go [] bodies

let decode_new revision =
  let d = Trace_format_v2.stream_decoder ~revision () in
  fun ~base body b -> Trace_format_v2.decode_body d ~base body b

(* the oracle's decoders, kept to read the column modes they saw *)
let oracles = ref []

let decode_oracle revision =
  let d = V2_oracle.stream_decoder ~revision () in
  oracles := d :: !oracles;
  fun ~base body b -> V2_oracle.decode_body d ~base body b

(* (absolute offset, body) of each block of a valid stream *)
let blocks_of full =
  let rec go pos acc =
    if pos >= String.length full then List.rev acc
    else begin
      let rec varint p acc shift =
        let b = Char.code full.[p] in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then (acc, p + 1) else varint (p + 1) acc (shift + 7)
      in
      let len, base = varint pos 0 0 in
      go (base + len) ((base, String.sub full base len) :: acc)
    end
  in
  go 5 []

let xors = [ 1; 0x80; 0xff ]

let flip s pos mask =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code s.[pos] lxor mask));
  Bytes.to_string b

(* Every variant of [full]: the first mismatch, and how many of the
   whole-file xors still decoded as valid rows. *)
let decoder_law full =
  let tmp = tmp_file () in
  let mismatch = ref None and valid_flips = ref 0 in
  let agree what a b =
    if !mismatch = None && a <> b then
      mismatch :=
        Some
          (Printf.sprintf "%s: new %s, oracle %s" what (describe a)
             (describe b))
  in
  let file what s =
    write_file tmp s;
    let o = via_fold V2_oracle.fold_batches tmp in
    agree what (via_fold Trace_format_v2.fold_batches tmp) o;
    o
  in
  let len = String.length full in
  for cut = 0 to len - 1 do
    ignore (file (Printf.sprintf "file cut at %d" cut) (String.sub full 0 cut))
  done;
  for pos = 0 to len - 1 do
    List.iter
      (fun mask ->
        let what = Printf.sprintf "file byte %d xor %#x" pos mask in
        match file what (flip full pos mask) with
        | Decoded _ -> incr valid_flips
        | _ -> ())
      xors
  done;
  Sys.remove tmp;
  let revision = Char.code full.[4] in
  let blocks = Array.of_list (blocks_of full) in
  (* reused across variants, as the serve path reuses its batches *)
  let new_batch = Batch.create () and oracle_batch = Batch.create () in
  Array.iteri
    (fun k (base, body) ->
      let with_body b =
        Array.to_list
          (Array.mapi (fun j blk -> if j = k then (base, b) else blk) blocks)
      in
      let serve what b =
        let bodies = with_body b in
        agree what
          (via_bodies (decode_new revision) new_batch bodies)
          (via_bodies (decode_oracle revision) oracle_batch bodies)
      in
      for cut = 0 to String.length body - 1 do
        serve
          (Printf.sprintf "block %d body cut at %d" k cut)
          (String.sub body 0 cut)
      done;
      for pos = 0 to String.length body - 1 do
        List.iter
          (fun mask ->
            serve (Printf.sprintf "block %d body byte %d xor %#x" k pos mask)
              (flip body pos mask))
          xors
      done)
    blocks;
  (!mismatch, !valid_flips)

(* the number of whole-file xors that decoded as valid rows *)
let check_law name full =
  match decoder_law full with
  | None, valid -> valid
  | Some m, _ -> Alcotest.failf "%s: %s" name m

(* The generated corpus is revision 3; corpus/rev2 holds the same
   traces as the revision-2 encoder wrote them. *)
let test_law_corpus () =
  List.iter
    (fun name ->
      List.iter
        (fun path ->
          let full = In_channel.with_open_bin path In_channel.input_all in
          ignore (check_law path full))
        [
          Test_trace.corpus (name ^ ".trace.v2");
          Test_trace.corpus (Filename.concat "rev2" (name ^ ".trace.v2"));
        ])
    [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]

(* A revision-2 block body, as the revision-2 encoder wrote it: RLE
   kinds and plain location ids, no mode bytes.  [ids] is the stream's
   location table. *)
let encode_rev2 ids (b : Batch.t) =
  let n = Batch.length b in
  let buf = Buffer.create (n * 4) in
  let varint = Trace_format.write_varint buf in
  let rle col ~tag =
    let i = ref 0 in
    while !i < n do
      let j = ref (!i + 1) in
      while !j < n && col.(!j) = col.(!i) do incr j done;
      if tag then Buffer.add_char buf (Char.chr col.(!i)) else varint col.(!i);
      varint (!j - !i);
      i := !j
    done
  in
  varint n;
  rle b.kind ~tag:true;
  rle b.a ~tag:false;
  for i = 0 to n - 1 do
    let d = b.b.(i) - if i = 0 then 0 else b.b.(i - 1) in
    Trace_format.write_uvarint buf ((d lsl 1) lxor (d asr 62))
  done;
  rle b.c ~tag:false;
  for i = 0 to n - 1 do
    if b.kind.(i) <= Trace_format.tag_write then
      let loc = Loc_table.name (Batch.locs b) b.loc.(i) in
      match Hashtbl.find_opt ids loc with
      | Some id -> varint id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids loc id;
        varint id;
        varint (String.length loc);
        Buffer.add_string buf loc
  done;
  Buffer.contents buf

(* [events] as a v2 stream of whole blocks of the given sizes, the
   last one cut short if the events run out, in block revision
   [revision] (default: the one writers emit). *)
let v2_blocks ?(revision = Trace_format_v2.version) events sizes =
  let evs = ref events in
  let encode =
    if revision = 2 then encode_rev2 (Hashtbl.create 16)
    else Trace_format_v2.encode_body (Trace_format_v2.block_encoder ())
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Trace_format.magic;
  Buffer.add_char buf (Char.chr revision);
  List.iter
    (fun size ->
      let b = Batch.create ~capacity:size () in
      while (not (Batch.is_full b)) && !evs <> [] do
        Batch.push b (List.hd !evs);
        evs := List.tl !evs
      done;
      if Batch.length b > 0 then begin
        let body = encode b in
        Trace_format.write_varint buf (String.length body);
        Buffer.add_string buf body
      end)
    sizes;
  Buffer.contents buf

(* A recorded workload's first events as a stream of whole blocks;
   the blocks are smaller than the writer's so that a stream crosses
   block boundaries (and the location table spans blocks) within a few
   hundred rows, including a one-row block. *)
let recorded_prefix ?revision (w : Dgrace_workloads.Workload.t) sizes =
  let want = List.fold_left ( + ) 0 sizes in
  let evs = ref [] and n = ref 0 in
  (try
     ignore
       (Dgrace_workloads.Workload.run
          ~params:(Dgrace_workloads.Workload.with_params ~scale:1 w)
          ~sink:(fun ev ->
            if !n = want then raise Exit;
            evs := ev :: !evs;
            incr n)
          w)
   with Exit -> ());
  v2_blocks ?revision (List.rev !evs) sizes

(* The format has no checksum, so some flips decode as valid rows; the
   count is printed for the record (ROADMAP item 6), not asserted.
   Both revisions run, and the revision-3 prefixes cover every mode
   of both moded columns. *)
let test_law_recorded () =
  oracles := [];
  List.iter
    (fun revision ->
      let valid, flips =
        List.fold_left
          (fun (valid, flips) (w : Dgrace_workloads.Workload.t) ->
            let full = recorded_prefix ~revision w [ 32; 1; 48 ] in
            ( valid + check_law w.name full,
              flips + (List.length xors * String.length full) ))
          (0, 0) Dgrace_workloads.Registry.all
      in
      Printf.printf
        "revision %d: %d of %d single-byte xors decoded as valid rows\n"
        revision valid flips)
    [ 2; 3 ];
  let seen = List.concat_map V2_oracle.modes_seen !oracles in
  List.iter
    (fun (column, mode) ->
      if not (List.mem (column, mode) seen) then
        Alcotest.failf "no revision-3 block used %s mode %d" column mode)
    [ ("kind", 0); ("kind", 1); ("location", 0); ("location", 1) ]

let qcheck_decoder_law =
  QCheck.Test.make ~name:"v2: decoder law on random event lists" ~count:12
    (QCheck.small_list Test_trace.arb_event) (fun events ->
      let path = tmp_file () in
      let (), _ =
        Trace_format_v2.to_file path (fun sink -> List.iter sink events)
      in
      let full = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      let rev2 = v2_blocks ~revision:2 events [ 7; 1; 40 ] in
      match (decoder_law full, decoder_law rev2) with
      | (None, _), (None, _) -> true
      | (Some m, _), _ | _, (Some m, _) -> QCheck.Test.fail_report m)

(* qcheck laws (fixed seed in CI via QCHECK_SEED) *)

let arb_events = QCheck.small_list Test_trace.arb_event

let qcheck_roundtrip =
  QCheck.Test.make ~name:"v2: random event lists round-trip" ~count:100
    arb_events (fun events ->
      let _, back = v2_roundtrip events in
      strings back = strings events)

let qcheck_v1_v2_agree =
  QCheck.Test.make ~name:"v2: v1 and v2 encode the same stream" ~count:50
    arb_events (fun events ->
      let v1 = tmp_file () and v2 = tmp_file () in
      let (), _ = Trace_writer.to_file v1 (fun sink -> List.iter sink events) in
      let (), _ =
        Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
      in
      let a = Trace_reader.read_file v1 in
      let b = Trace_format_v2.read_file v2 in
      Sys.remove v1;
      Sys.remove v2;
      strings a = strings b)

let qcheck_batched_replay_identical =
  QCheck.Test.make
    ~name:"v2: batched replay race-identical to per-event" ~count:50
    arb_events (fun events ->
      let v2 = tmp_file () in
      let (), _ =
        Trace_format_v2.to_file v2 (fun sink -> List.iter sink events)
      in
      let per_event = Tutil.(analyze (config Spec.dynamic) (event_list events)) in
      let batched = Tutil.(analyze (config Spec.dynamic) (v2_batches v2)) in
      Sys.remove v2;
      List.map Report.to_string per_event.races
      = List.map Report.to_string batched.races)

(* ------------------------------------------------------------------ *)
(* the b column over the whole int range *)

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

(* A format change must not change what any trace decodes to, and
   the bytes writers emit are pinned.  The v1 corpus files keep their
   bytes.  corpus/rev2 holds the v2 corpus as the revision-2 encoder
   wrote it: pinned by the MD5 of its bytes and of its decoded rows
   (one [Event.to_string] line per event, as [racedet trace-dump]
   prints them), both taken from that encoder's build; re-encoding it
   writes revision 3, which is pinned byte for byte and must be the
   v2 corpus the current writer generates.  The scale-1 recordings
   (seed 1) are pinned the same way: rows from the revision-2 build,
   revision-3 bytes from this one. *)
let v1_corpus_digests =
  [
    ("clean.trace", "de26a5ec9adf500df1e7b347cfd8fb7b");
    ("deadlock_adjacent.trace", "20ecd286c10b6a6b1e6f04c413623262");
    ("racy.trace", "0d5150869e8821690b0b54e1119454ac");
    ("straddle.trace", "fb6c1acccb11425d832b0533fb568606");
  ]

(* name, revision-2 bytes, rows, revision-3 bytes *)
let rev2_fixtures =
  [
    ( "clean.trace.v2",
      "45a14f1fc40a31f8a60fccf7b8c263d0",
      "0203a40e4826fb4647d7cbb5ac6bedf1",
      "0c847c4c9210f483564ef44b782ea579" );
    ( "deadlock_adjacent.trace.v2",
      "a62605e62c40a9a1fd66c9e8393e9a3a",
      "b10cc78d4c8b26476ba4dd295b4c707b",
      "04302419de7927218dd9d0a16fee6bc0" );
    ( "racy.trace.v2",
      "0688abd0ad5dda402f9ad6874da782ba",
      "6c25fd5bc68f3e00b819a3c0940ba636",
      "a6854f802096895d89008f506141ae57" );
    ( "straddle.trace.v2",
      "7a8a6a0e07e57fd515ae77c8b96201bd",
      "d10e66ba6347f108882ca7d38b8aef76",
      "d2cabcae296829bf96ff77b05dfff03a" );
  ]

(* name, rows, revision-3 bytes *)
let recorded_digests =
  [
    ("facesim", "344d1d79bb414e1ba037116808d6f8bb", "5fcac4990f05951772ebe2068503fd2a");
    ("ferret", "b48978fe16ac237d664c031abeb1c976", "2017753d8795d827bdb60ca1f53cf379");
    ("fluidanimate", "81ea5b44d01df9c115bf0cf2e6701dde", "39d93999a353f758012e4862e0b2d640");
    ("raytrace", "f86ca629108507f76b46adc02bae11e7", "5963bfe8459bea8821ce7688287d1035");
    ("x264", "a44104c5792595cb56a509a7f23d74a8", "08a78591c865453ce91d69a369309d2d");
    ("canneal", "f9b539c9695d9774298edc83afa229bf", "3756ad88309df4b9a2fc786006713c66");
    ("dedup", "1a0c6371aa2b70dc4f98fa85e0489137", "542c819005e24f4738a45c028f14110b");
    ("streamcluster", "e7959908ff3c40860cc7ecb1895538a2", "da78f93bbdecd5c58406f257b1c02256");
    ("ffmpeg", "2b0d2e117b10376abc040e82679f933b", "fabab08b171761f84801656f2feb03ad");
    ("pbzip2", "d06bea1a6ee3b8c7973940f3442fda0f", "4f469250bbf3730e4d123a4b41e762a8");
    ("hmmsearch", "0b62f184c9db8e9153d28226d1ef5826", "a4643afd3ba759295fc3f8695a11ee7e");
  ]

let md5 s = Digest.to_hex (Digest.string s)

let rows_digest events =
  md5 (String.concat "" (List.map (fun ev -> Event.to_string ev ^ "\n") events))

let reencode ~v2 events =
  let path = tmp_file () in
  let to_file = if v2 then Trace_format_v2.to_file else Trace_writer.to_file in
  let (), _ = to_file path (fun sink -> List.iter sink events) in
  let bytes = file_bytes path in
  Sys.remove path;
  bytes

let test_reencode_identical () =
  List.iter
    (fun (name, digest) ->
      let bytes = file_bytes (Test_trace.corpus name) in
      Alcotest.(check string) (name ^ ": pinned digest") digest (md5 bytes);
      let events = Trace_reader.read_file (Test_trace.corpus name) in
      if reencode ~v2:false events <> bytes then
        Alcotest.failf "%s: re-encoding changed the bytes" name)
    v1_corpus_digests;
  List.iter
    (fun (name, rev2, rows, rev3) ->
      let path = Test_trace.corpus (Filename.concat "rev2" name) in
      Alcotest.(check string) (name ^ ": revision-2 bytes") rev2
        (md5 (file_bytes path));
      Alcotest.(check int) (name ^ ": revision 2") 2
        (Trace_reader.probe_version path);
      let events = Trace_format_v2.read_file path in
      Alcotest.(check string) (name ^ ": rows") rows (rows_digest events);
      let bytes = reencode ~v2:true events in
      Alcotest.(check string) (name ^ ": revision-3 bytes") rev3 (md5 bytes);
      Alcotest.(check string) (name ^ ": the corpus is revision 3") rev3
        (md5 (file_bytes (Test_trace.corpus name))))
    rev2_fixtures;
  List.iter
    (fun (name, rows, rev3) ->
      let w = Option.get (Dgrace_workloads.Registry.find name) in
      let events = Array.to_list (Tutil.recorded w 1) in
      Alcotest.(check string) (name ^ ": rows") rows (rows_digest events);
      let path = tmp_file () in
      let (), _ =
        Trace_format_v2.to_file path (fun sink -> List.iter sink events)
      in
      Alcotest.(check string) (name ^ ": revision-3 bytes") rev3
        (md5 (file_bytes path));
      Alcotest.(check string) (name ^ ": decodes to its rows") rows
        (rows_digest (Trace_format_v2.read_file path));
      Sys.remove path)
    recorded_digests

let lock_events lock =
  [
    Event.Acquire { tid = 0; lock = 0; sync = Event.Lock };
    Event.Release { tid = 0; lock = 0; sync = Event.Lock };
    Event.Acquire { tid = 0; lock; sync = Event.Lock };
    Event.Release { tid = 0; lock; sync = Event.Lock };
  ]

(* Lock [max_int] right after lock 0 is a b-column delta of 2^62 - 1:
   it round-trips through v2 and through a v1 -> v2 conversion. *)
let test_extreme_lock_ids () =
  List.iter
    (fun lock ->
      let events = lock_events lock in
      let _, back = v2_roundtrip events in
      Alcotest.(check (list string))
        (Printf.sprintf "lock %d round-trips" lock)
        (strings events) (strings back))
    [ max_int; min_int; -1; max_int - 1; min_int + 1; 1 lsl 61; -(1 lsl 61) ];
  let v1 = tmp_file () and v2 = tmp_file () in
  let events = lock_events max_int in
  let (), _ = Trace_writer.to_file v1 (fun sink -> List.iter sink events) in
  let (), _ =
    Trace_format_v2.to_file v2 (fun sink ->
        Trace_reader.fold_file v1 (fun () ev -> sink ev) ())
  in
  Alcotest.(check (list string)) "v1 -> v2 conversion round-trips"
    (strings events)
    (strings (Trace_format_v2.read_file v2));
  Sys.remove v1;
  Sys.remove v2

let refused f =
  match f () with
  | _ -> false
  | exception Error.E (Error.Invalid_input _) -> true

(* A negative address, or one past [max_addr], is refused before the
   first byte of its block is written, and the failed write leaves no
   file; so is a negative lock id in v1, which stores lock ids
   unsigned. *)
let test_writers_refuse () =
  let access addr =
    [ Event.Access { tid = 0; kind = Write; addr; size = 1; loc = "" } ]
  in
  let bad_addr = access (-8) and high_addr = access (max_int - 1) in
  let neg_lock = lock_events (-3) in
  List.iter
    (fun (what, to_file, events) ->
      let path = tmp_file () in
      Alcotest.(check bool) (what ^ ": Invalid_input") true
        (refused (fun () -> to_file path (fun sink -> List.iter sink events)));
      Alcotest.(check bool) (what ^ ": no file left") false (Sys.file_exists path))
    [
      ("v2 negative address", Trace_format_v2.to_file, bad_addr);
      ("v1 negative address", Trace_writer.to_file, bad_addr);
      ("v2 address past max_addr", Trace_format_v2.to_file, high_addr);
      ("v1 address past max_addr", Trace_writer.to_file, high_addr);
      ("v1 negative lock id", Trace_writer.to_file, neg_lock);
    ]

(* The top of the address range the format admits replays: the bound
   keeps range arithmetic from overflowing (an access near [max_int]
   runs the shadow table's page loop out of memory). *)
let test_top_address_replays () =
  let top = Trace_format.max_addr in
  let events =
    [
      Event.Alloc { tid = 0; addr = top - 63; size = 64 };
      Event.Access { tid = 0; kind = Write; addr = top - 3; size = 4; loc = "" };
      Event.Access { tid = 1; kind = Read; addr = top; size = 1; loc = "" };
    ]
  in
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink -> List.iter sink events)
  in
  List.iter
    (fun spec ->
      let s = Tutil.(analyze (config spec) (Engine.Source.V2_file path)) in
      Alcotest.(check int) (Spec.name spec ^ ": one race") 1 s.race_count)
    [ Spec.dynamic; Spec.byte ];
  Sys.remove path

(* Streams whose lock ids and addresses range over every int, with a
   few out-of-bounds tids and sizes mixed in. *)
let arb_wide_events =
  let open QCheck.Gen in
  let wide =
    frequency
      [
        (3, int);
        (2, oneofl [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1;
                     (1 lsl 61) - 1; 1 lsl 61; -(1 lsl 61) ]);
        (3, int_bound 0xffff);
      ]
  in
  let tid = frequency [ (30, int_bound 3); (1, oneofl [ -1; 1024; max_int ]) ] in
  let size =
    frequency [ (30, oneofl [ 1; 2; 4; 8 ]); (1, oneofl [ -1; (1 lsl 30) + 1 ]) ]
  in
  let sync = oneofl Event.[ Lock; Barrier; Flag; Atomic ] in
  let access kind =
    map
      (fun ((t, a), (s, loc)) -> Event.Access { tid = t; kind; addr = a; size = s; loc })
      (pair (pair tid wide) (pair size (oneofl [ ""; "a"; "b" ])))
  in
  let event =
    frequency
      [
        (2, access Event.Read);
        (2, access Event.Write);
        (3, map (fun (t, l, s) -> Event.Acquire { tid = t; lock = l; sync = s }) (triple tid wide sync));
        (3, map (fun (t, l, s) -> Event.Release { tid = t; lock = l; sync = s }) (triple tid wide sync));
        (1, map (fun (p, c) -> Event.Fork { parent = p; child = c }) (pair tid tid));
        (1, map (fun (p, c) -> Event.Join { parent = p; child = c }) (pair tid tid));
        (1, map (fun ((t, a), s) -> Event.Alloc { tid = t; addr = a; size = s }) (pair (pair tid wide) size));
        (1, map (fun ((t, a), s) -> Event.Free { tid = t; addr = a; size = s }) (pair (pair tid wide) size));
        (1, map (fun t -> Event.Thread_exit { tid = t }) tid);
      ]
  in
  QCheck.make
    ~print:(fun evs -> String.concat "\n" (List.map Event.to_string evs))
    (list_size (int_range 0 40) event)

(* The bounds, written out independently of [Trace_format.check_event]:
   what v2 can store, and what v1 can (no negative lock id). *)
let storable ~v1 (ev : Event.t) =
  let tid t = t >= 0 && t <= Trace_format.max_tid in
  let size s = s >= 0 && s <= Trace_format.max_access_size in
  let addr a = a >= 0 && a < 1 lsl 61 in
  match ev with
  | Access { tid = t; addr = a; size = s; _ } -> tid t && addr a && size s
  | Acquire { tid = t; lock; _ } | Release { tid = t; lock; _ } ->
    tid t && ((not v1) || lock >= 0)
  | Fork { parent; child } | Join { parent; child } -> tid parent && tid child
  | Alloc { tid = t; addr = a; size = s } | Free { tid = t; addr = a; size = s }
    ->
    tid t && addr a && size s
  | Thread_exit { tid = t } -> tid t

(* [write path] either succeeds and [read path] gives back [events], or
   is refused with [Invalid_input] and leaves no file. *)
let round_trips_or_refused ~ok events write read =
  let path = tmp_file () in
  Sys.remove path;
  match write path with
  | () ->
    let back = read path in
    Sys.remove path;
    ok && strings back = strings events
  | exception Error.E (Error.Invalid_input _) ->
    (not ok) && not (Sys.file_exists path)

(* The client's cut: every row checked, then one BATCH frame per block
   through a serve session's decoder. *)
let via_batch_frames events =
  let enc = Trace_format_v2.block_encoder () in
  let session = Dgrace_serve.Session.open_ ~id:1 ~spec:Spec.dynamic () in
  let back = ref [] in
  let send body len =
    match
      Dgrace_serve.Session.decode_batch_frame session (Bytes.sub_string body 0 len)
    with
    | Error e -> Alcotest.failf "frame decode: %s" (Error.to_string e)
    | Ok b ->
      Batch.iter_events (fun ev -> back := ev :: !back) b;
      ignore (Dgrace_serve.Session.apply_decoded session b)
  in
  match
    if events <> [] then
      Trace_format_v2.encode_blocks enc (Batch.of_events events) send
  with
  | exception Error.E (Error.Invalid_input _) -> None
  | () ->
    ignore (Dgrace_serve.Session.finalize session);
    Some (List.rev !back)

(* A crafted body whose stream ids 0 and 1 both introduce "x" (no
   writer names a label twice): both rows decode to "x", through one
   id of the decoder's table. *)
let test_label_named_twice () =
  let body =
    String.concat ""
      (List.map (String.make 1)
         (List.map Char.chr
            [ 2; (* n *) 0; 0; 2; (* kinds: RLE, read x2 *) 0; 2; (* tids *)
              0; 16; (* addrs 0, 8 *) 4; 2; (* sizes *)
              0; (* locations: plain *) 1; 1; Char.code 'x'; 2; 1; Char.code 'x' ]))
  in
  let locs = Loc_table.create () in
  let dec = Trace_format_v2.stream_decoder ~locs () in
  let b = Batch.create () in
  (match Trace_format_v2.decode_body dec ~base:5 body b with
   | Ok () -> ()
   | Error e -> Alcotest.failf "decode: %s" (Error.to_string e));
  Alcotest.(check (list string)) "rows"
    [ "R t0 0x0+4 (x)"; "R t0 0x8+4 (x)" ]
    (List.init (Batch.length b) (fun i -> Event.to_string (Batch.event b i)));
  Alcotest.(check int) "one id" b.Batch.loc.(0) b.Batch.loc.(1);
  Alcotest.(check int) "table" 2 (Loc_table.length locs)

(* ------------------------------------------------------------------ *)
(* the batch writer *)

(* What a writer leaves: the file's bytes, or the exception its
   producer raised (and then no file). *)
let written write =
  let path = tmp_file () in
  match write path with
  | () ->
    let bytes = file_bytes path in
    Sys.remove path;
    Ok bytes
  | exception e -> if Sys.file_exists path then Error "file left" else Error (Printexc.to_string e)

let via_to_file run path = ignore (Trace_format_v2.to_file path (fun sink -> run sink))

let via_batches run path =
  ignore (Trace_format_v2.batches_to_file path (fun consume -> run consume))

(* [events] in batches of [rows] rows over one location table. *)
let feed_rows ~rows events consume =
  let locs = Loc_table.create () in
  let b = Batch.create ~capacity:rows ~locs () in
  List.iter
    (fun ev ->
      Batch.push b ev;
      if Batch.is_full b then begin
        consume b;
        Batch.clear b
      end)
    events;
  if Batch.length b > 0 then consume b

let row_lengths =
  [
    ("4096", fun (_ : int) -> Trace_format_v2.block_events);
    ("1", fun _ -> 1);
    ("1000", fun _ -> 1000);
    ("varying", fun n -> 1 + (n mod 4093));
  ]

let check_same ~ctx want got =
  match (want, got) with
  | Ok a, Ok b ->
    if a <> b then
      Alcotest.failf "%s: %d bytes vs %d, first difference at %d" ctx
        (String.length a) (String.length b)
        (let i = ref 0 in
         while !i < String.length a && !i < String.length b && a.[!i] = b.[!i] do incr i done;
         !i)
  | Error a, Error b -> Alcotest.(check string) (ctx ^ ": same failure") a b
  | Ok _, Error e -> Alcotest.failf "%s: the batch writer failed: %s" ctx e
  | Error e, Ok _ -> Alcotest.failf "%s: to_file failed (%s), the batch writer did not" ctx e

(* Simulator rows through [batches_to_file] (what [racedet record
   --trace-v2] runs) give the bytes [to_file] gives the same run's
   events, over every workload at scale 1 and the golden table's
   random programs (whose misuse and deadlocks must fail both writers
   alike), for batches of any length. *)
let test_batch_writer_programs () =
  let programs =
    List.map
      (fun (w : Dgrace_workloads.Workload.t) ->
        (w.name, w.program (Dgrace_workloads.Workload.with_params ~scale:1 w)))
      Dgrace_workloads.Registry.all
    @ List.init 40 (fun i ->
          ( Printf.sprintf "prog%03d" i,
            Sim_golden.program (Sim_golden.gen_shape (Random.State.make [| 0x5eed; i |])) ))
  in
  List.iter
    (fun (name, main) ->
      let policy = Dgrace_sim.Scheduler.Chunked { seed = 1; chunk = 64 } in
      let want =
        written (via_to_file (fun sink -> ignore (Dgrace_sim.Sim.run ~policy ~sink main)))
      in
      List.iter
        (fun (rname, rows) ->
          check_same ~ctx:(name ^ " rows=" ^ rname) want
            (written
               (via_batches (fun consume ->
                    ignore (Dgrace_sim.Sim.run_batches ~policy ~rows ~consume main)))))
        row_lengths)
    programs

(* Labels long enough that blocks close on [max_body_len], not on
   rows: each pair of accesses shares a 30,000-byte label, so a block
   is cut after about 560 labels. *)
let test_batch_writer_long_labels () =
  let labels = Array.init 600 (fun i -> Printf.sprintf "%05d%s" i (String.make 30000 'l')) in
  let events =
    List.init 1200 (fun i ->
        Event.Access
          { tid = i mod 3; kind = (if i mod 5 = 0 then Write else Read); addr = 8 * i; size = 8; loc = labels.(i / 2) })
  in
  let want = written (via_to_file (fun sink -> List.iter sink events)) in
  (match want with
   | Ok bytes ->
     let path = tmp_file () in
     write_file path bytes;
     let blocks = Trace_format_v2.fold_batches path (fun k _ -> k + 1) 0 in
     Sys.remove path;
     Alcotest.(check bool) "cut on the body bound" true (blocks > 1)
   | Error e -> Alcotest.failf "to_file: %s" e);
  List.iter
    (fun rows ->
      check_same ~ctx:(Printf.sprintf "rows=%d" rows) want
        (written (via_batches (feed_rows ~rows events))))
    [ 4096; 7 ]

(* A producer's batches share one location table: rows of a second
   table that would join an open block are refused, and no file is
   left. *)
let test_batch_writer_two_tables () =
  let batch () =
    let b = Batch.create ~locs:(Loc_table.create ()) () in
    Batch.push b (Event.Access { tid = 0; kind = Read; addr = 8; size = 4; loc = "x" });
    b
  in
  let path = tmp_file () in
  (match
     Trace_format_v2.batches_to_file path (fun consume ->
         consume (batch ());
         consume (batch ()))
   with
   | _ -> Alcotest.fail "a batch over a second table was accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no file left" false (Sys.file_exists path)

(* The same over hand-made streams: random events, refused ones
   included (out-of-range fields, and with [long] an over-long label
   midway), in batches of random lengths: the same bytes, or the same
   refusal. *)
let qcheck_batch_writer =
  let too_long = String.make (Trace_format.max_loc_len + 1) 'x' in
  QCheck.Test.make ~name:"v2: batch writer = to_file" ~count:200
    QCheck.(triple (int_range 1 50) arb_wide_events bool)
    (fun (rows, events, long) ->
      let events =
        if not long then events
        else
          List.concat
            (List.mapi
               (fun i ev ->
                 if i = List.length events / 2 then
                   [ Event.Access { tid = 0; kind = Write; addr = 0; size = 1; loc = too_long }; ev ]
                 else [ ev ])
               events)
      in
      written (via_to_file (fun sink -> List.iter sink events))
      = written (via_batches (feed_rows ~rows events)))

let qcheck_full_range =
  QCheck.Test.make ~name:"v2: full-range ints round-trip or are refused"
    ~count:300 arb_wide_events (fun events ->
      let ok_v2 = List.for_all (storable ~v1:false) events in
      let ok_v1 = List.for_all (storable ~v1:true) events in
      let write_v2 path =
        ignore (Trace_format_v2.to_file path (fun sink -> List.iter sink events))
      in
      let write_v1 path =
        ignore (Trace_writer.to_file path (fun sink -> List.iter sink events))
      in
      (* [racedet convert]: stream one file's events into the other
         format's writer *)
      let convert ~to_v2 src dst =
        let feed sink =
          if to_v2 then Trace_reader.fold_file src (fun () ev -> sink ev) ()
          else Trace_format_v2.fold_file src (fun () ev -> sink ev) ()
        in
        ignore
          (if to_v2 then Trace_format_v2.to_file dst feed
           else Trace_writer.to_file dst feed)
      in
      let with_written write f =
        let src = tmp_file () in
        match write src with
        | () ->
          Fun.protect ~finally:(fun () -> Sys.remove src) (fun () -> f src)
        | exception Error.E (Error.Invalid_input _) -> true
      in
      round_trips_or_refused ~ok:ok_v2 events write_v2 Trace_format_v2.read_file
      && round_trips_or_refused ~ok:ok_v1 events write_v1 Trace_reader.read_file
      && with_written write_v1 (fun v1 ->
             round_trips_or_refused ~ok:ok_v2 events
               (convert ~to_v2:true v1) Trace_format_v2.read_file)
      && with_written write_v2 (fun v2 ->
             round_trips_or_refused ~ok:ok_v1 events
               (convert ~to_v2:false v2) Trace_reader.read_file)
      &&
      match via_batch_frames events with
      | None -> not ok_v2
      | Some back -> ok_v2 && strings back = strings events)

let suites : unit Alcotest.test list =
  [
    ( "trace_v2.format",
      [
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "multi-block" `Quick test_multi_block;
        Alcotest.test_case "batch row numbering" `Quick
          test_fold_batches_offsets;
        Alcotest.test_case "v1 interchange replay" `Quick test_v1_interchange;
        Alcotest.test_case "truncate at every offset" `Quick
          test_truncate_every_offset;
        Alcotest.test_case "corrupt block offset" `Quick
          test_corrupt_block_offset;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_v1_v2_agree;
        QCheck_alcotest.to_alcotest qcheck_batched_replay_identical;
        Alcotest.test_case "huge run rejected" `Quick test_huge_run_rejected;
        Alcotest.test_case "mode byte other than 0 or 1 rejected" `Quick
          test_bad_mode_rejected;
        Alcotest.test_case "doc/trace.md worked example" `Quick
          test_doc_example;
        Alcotest.test_case "over-long location rejected" `Quick
          test_long_location_rejected;
        Alcotest.test_case "oversized block closes early" `Quick
          test_oversized_block_split;
        Alcotest.test_case "failed producer leaves no file" `Quick
          test_failed_producer_leaves_no_file;
        Alcotest.test_case "existing traces re-encode identically" `Quick
          test_reencode_identical;
        Alcotest.test_case "extreme lock ids round-trip" `Quick
          test_extreme_lock_ids;
        Alcotest.test_case "writers refuse what readers reject" `Quick
          test_writers_refuse;
        Alcotest.test_case "top of the address range replays" `Quick
          test_top_address_replays;
        QCheck_alcotest.to_alcotest qcheck_full_range;
        Alcotest.test_case "a label named twice decodes as one" `Quick
          test_label_named_twice;
        Alcotest.test_case "batch writer = to_file: programs" `Quick
          test_batch_writer_programs;
        Alcotest.test_case "batch writer = to_file: long labels" `Quick
          test_batch_writer_long_labels;
        Alcotest.test_case "batch writer: one location table" `Quick
          test_batch_writer_two_tables;
        QCheck_alcotest.to_alcotest qcheck_batch_writer;
      ] );
    ( "trace_v2.oracle",
      [
        Alcotest.test_case "decoder law: corpus" `Quick test_law_corpus;
        Alcotest.test_case "decoder law: recorded prefixes" `Quick
          test_law_recorded;
        QCheck_alcotest.to_alcotest qcheck_decoder_law;
      ] );
  ]
