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
  Alcotest.(check int) "v2 is v2" 2 (Trace_reader.probe_version v2);
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
   Corrupt_trace at the offending run, not an Array.fill exception. *)
let test_huge_run_rejected () =
  let buf = Buffer.create 16 in
  Trace_format.write_varint buf 2;
  Buffer.add_char buf (Char.chr Trace_format.tag_read);
  Trace_format.write_varint buf 1;
  Buffer.add_char buf (Char.chr Trace_format.tag_read);
  Trace_format.write_varint buf max_int;
  let body = Buffer.contents buf in
  let dec = Trace_format_v2.stream_decoder () in
  match Trace_format_v2.decode_body dec ~base:100 body (Batch.create ()) with
  | Ok () -> Alcotest.fail "a run past the block decoded"
  | Error (Error.Corrupt_trace c) ->
    Alcotest.(check string) "reason" "kind run out of range" c.reason;
    Alcotest.(check int) "offset" (100 + String.length body) c.offset
  | Error e -> Alcotest.failf "unexpected %s" (Error.to_string e)

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
      (b.kind.(i), b.a.(i), b.b.(i), b.c.(i), b.loc.(i), b.off.(i)))

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

let decode_new () =
  let d = Trace_format_v2.stream_decoder () in
  fun ~base body b -> Trace_format_v2.decode_body d ~base body b

let decode_oracle () =
  let d = V2_oracle.stream_decoder () in
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
          (via_bodies (decode_new ()) new_batch bodies)
          (via_bodies (decode_oracle ()) oracle_batch bodies)
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

let test_law_corpus () =
  List.iter
    (fun name ->
      let path = Test_trace.corpus (name ^ ".trace.v2") in
      let full = In_channel.with_open_bin path In_channel.input_all in
      ignore (check_law name full))
    [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]

(* [events] as a v2 stream of whole blocks of the given sizes, the
   last one cut short if the events run out. *)
let v2_blocks events sizes =
  let evs = ref events in
  let enc = Trace_format_v2.block_encoder () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Trace_format.magic;
  Buffer.add_char buf (Char.chr Trace_format_v2.version);
  List.iter
    (fun size ->
      let b = Batch.create ~capacity:size () in
      while (not (Batch.is_full b)) && !evs <> [] do
        Batch.push b (List.hd !evs);
        evs := List.tl !evs
      done;
      if Batch.length b > 0 then begin
        let body = Trace_format_v2.encode_body enc b in
        Trace_format.write_varint buf (String.length body);
        Buffer.add_string buf body
      end)
    sizes;
  Buffer.contents buf

(* A recorded workload's first events as a stream of whole blocks;
   the blocks are smaller than the writer's so that a stream crosses
   block boundaries (and the location table spans blocks) within a few
   hundred rows, including a one-row block. *)
let recorded_prefix (w : Dgrace_workloads.Workload.t) sizes =
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
  v2_blocks (List.rev !evs) sizes

(* The format has no checksum, so some flips decode as valid rows; the
   count is printed for the record (ROADMAP item 4), not asserted. *)
let test_law_recorded () =
  let valid, flips =
    List.fold_left
      (fun (valid, flips) (w : Dgrace_workloads.Workload.t) ->
        let full = recorded_prefix w [ 32; 1; 48 ] in
        ( valid + check_law w.name full,
          flips + (List.length xors * String.length full) ))
      (0, 0) Dgrace_workloads.Registry.all
  in
  Printf.printf "%d of %d single-byte xors decoded as valid rows\n" valid flips

let qcheck_decoder_law =
  QCheck.Test.make ~name:"v2: decoder law on random event lists" ~count:12
    (QCheck.small_list Test_trace.arb_event) (fun events ->
      let path = tmp_file () in
      let (), _ =
        Trace_format_v2.to_file path (fun sink -> List.iter sink events)
      in
      let full = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      match decoder_law full with
      | None, _ -> true
      | Some m, _ -> QCheck.Test.fail_report m)

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

(* Widening the b column to every int must not change the bytes of
   any trace the narrower encoding could write.  The digests are those
   the narrower encoder wrote for the corpus files and the scale-1
   recordings (seed 1); re-encoding reads each file back and writes it
   again. *)
let corpus_digests =
  [
    ("clean.trace", "de26a5ec9adf500df1e7b347cfd8fb7b");
    ("deadlock_adjacent.trace", "20ecd286c10b6a6b1e6f04c413623262");
    ("racy.trace", "0d5150869e8821690b0b54e1119454ac");
    ("straddle.trace", "fb6c1acccb11425d832b0533fb568606");
    ("clean.trace.v2", "45a14f1fc40a31f8a60fccf7b8c263d0");
    ("deadlock_adjacent.trace.v2", "a62605e62c40a9a1fd66c9e8393e9a3a");
    ("racy.trace.v2", "0688abd0ad5dda402f9ad6874da782ba");
    ("straddle.trace.v2", "7a8a6a0e07e57fd515ae77c8b96201bd");
  ]

let recorded_v2_digests =
  [
    ("facesim", "5c707d9cec32cd8e32ee612d20dfe173");
    ("ferret", "445cead9c5dc895d50f4ac23a6741a18");
    ("fluidanimate", "25a1f6e75e895597283affe2a11818e4");
    ("raytrace", "9913788250b911068def669aaa56ffd3");
    ("x264", "4e27f6dc64d687025f12e016cc82875f");
    ("canneal", "24d8cd405d45f3a1d4205bb3bae340fa");
    ("dedup", "28521f4ccabcf90f489ac79cb14524be");
    ("streamcluster", "7b1074e450d6d5ccb1caffeeca4d51bd");
    ("ffmpeg", "d1d5af4c2d7a1ee84cb617030f3452d1");
    ("pbzip2", "5177e502caf06a6a962cb19daac22772");
    ("hmmsearch", "2a3e3f19d131c1a7797ba884f68146da")
  ]

(* A process numbers sync objects from one global counter, so a
   recording's lock ids depend on what ran before it; renumbering them
   by first use makes the stream, and its digest, the same in any
   process. *)
let renumber_locks events =
  let ids = Hashtbl.create 64 in
  let id l =
    match Hashtbl.find_opt ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids + 1 in
      Hashtbl.replace ids l i;
      i
  in
  List.map
    (fun (ev : Event.t) ->
      match ev with
      | Acquire a -> Event.Acquire { a with lock = id a.lock }
      | Release r -> Event.Release { r with lock = id r.lock }
      | ev -> ev)
    events

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
      let path = Test_trace.corpus name in
      let bytes = file_bytes path in
      Alcotest.(check string) (name ^ ": pinned digest") digest
        (Digest.to_hex (Digest.string bytes));
      let v2 = Filename.check_suffix name ".v2" in
      let events =
        if v2 then Trace_format_v2.read_file path else Trace_reader.read_file path
      in
      if reencode ~v2 events <> bytes then
        Alcotest.failf "%s: re-encoding changed the bytes" name)
    corpus_digests;
  List.iter
    (fun (name, digest) ->
      let w = Option.get (Dgrace_workloads.Registry.find name) in
      let bytes =
        reencode ~v2:true (renumber_locks (Array.to_list (Tutil.recorded w 1)))
      in
      Alcotest.(check string) (name ^ ": pinned v2 digest") digest
        (Digest.to_hex (Digest.string bytes)))
    recorded_v2_digests

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

(* The client's cut: admit every row, then one BATCH frame per block
   through a serve session's decoder. *)
let via_batch_frames events =
  let cut = Trace_format_v2.cutter ~rows:Trace_format_v2.block_events in
  match List.map (fun ev -> Trace_format_v2.admit cut ev) events with
  | exception Error.E (Error.Invalid_input _) -> None
  | fits ->
    let enc = Trace_format_v2.block_encoder () in
    let session = Dgrace_serve.Session.open_ ~id:1 ~spec:Spec.dynamic () in
    let back = ref [] in
    let send block =
      let body =
        Trace_format_v2.encode_body enc (Batch.of_events (List.rev block))
      in
      match Dgrace_serve.Session.decode_batch_frame session body with
      | Error e -> Alcotest.failf "frame decode: %s" (Error.to_string e)
      | Ok b ->
        Batch.iter_events (fun ev -> back := ev :: !back) b;
        ignore (Dgrace_serve.Session.apply_decoded session b)
    in
    let last =
      List.fold_left2
        (fun block ev fit ->
          if fit || block = [] then ev :: block
          else begin
            send block;
            [ ev ]
          end)
        [] events fits
    in
    if last <> [] then send last;
    ignore (Dgrace_serve.Session.finalize session);
    Some (List.rev !back)

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
      ] );
    ( "trace_v2.oracle",
      [
        Alcotest.test_case "decoder law: corpus" `Quick test_law_corpus;
        Alcotest.test_case "decoder law: recorded prefixes" `Quick
          test_law_recorded;
        QCheck_alcotest.to_alcotest qcheck_decoder_law;
      ] );
  ]
