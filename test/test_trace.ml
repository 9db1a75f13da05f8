(* Trace record/replay: round-trips, the varint encoding, location
   interning, and corruption handling. *)

open Dgrace_events
open Dgrace_trace
module Error = Dgrace_resilience.Error

let tmp_file () = Filename.temp_file "dgrace" ".trace"

let roundtrip events =
  let path = tmp_file () in
  let (), n = Trace_writer.to_file path (fun sink -> List.iter sink events) in
  let back = Trace_reader.read_file path in
  Sys.remove path;
  (n, back)

let sample_events =
  [
    Event.Fork { parent = 0; child = 1 };
    Event.Alloc { tid = 0; addr = 0x1000; size = 64 };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 4; loc = "init" };
    Event.Acquire { tid = 1; lock = 3; sync = Event.Lock };
    Event.Access { tid = 1; kind = Read; addr = 0x1001; size = 1; loc = "worker" };
    Event.Release { tid = 1; lock = 3; sync = Event.Lock };
    Event.Acquire { tid = 1; lock = 9; sync = Event.Barrier };
    Event.Release { tid = 0; lock = 10; sync = Event.Flag };
    Event.Acquire { tid = 0; lock = 11; sync = Event.Atomic };
    Event.Access { tid = 0; kind = Write; addr = 0x1000; size = 4; loc = "init" };
    Event.Free { tid = 0; addr = 0x1000; size = 64 };
    Event.Join { parent = 0; child = 1 };
    Event.Thread_exit { tid = 0 };
  ]

let test_roundtrip () =
  let n, back = roundtrip sample_events in
  Alcotest.(check int) "count" (List.length sample_events) n;
  Alcotest.(check (list string)) "events"
    (List.map Event.to_string sample_events)
    (List.map Event.to_string back)

let test_loc_interning_compact () =
  (* the same long label repeated must be written once *)
  let loc = String.make 100 'x' in
  let ev = Event.Access { tid = 0; kind = Read; addr = 1; size = 1; loc } in
  let path = tmp_file () in
  let (), _ = Trace_writer.to_file path (fun sink -> for _ = 1 to 50 do sink ev done) in
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool) "interned (well under 50 copies)" true (size < 100 * 10)

(* The writer refuses a location the reader would reject as out of
   range, so every trace it records replays; the refused recording
   leaves no file, not a prefix that would pass for the whole trace. *)
let test_long_location_rejected () =
  let path = tmp_file () in
  let long = String.make 70001 'x' in
  (match
     Trace_writer.to_file path (fun sink ->
         List.iter sink sample_events;
         sink (Event.Access { tid = 0; kind = Write; addr = 0x40; size = 4; loc = long }))
   with
   | _ -> Alcotest.fail "an over-long location was recorded"
   | exception Error.E (Error.Invalid_input { what; _ }) ->
     Alcotest.(check string) "what" "trace location" what);
  Alcotest.(check bool) "no file left" false (Sys.file_exists path)

let test_varint () =
  let buf = Buffer.create 16 in
  List.iter (Trace_format.write_varint buf) [ 0; 1; 127; 128; 300; 1 lsl 40 ];
  let path = tmp_file () in
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc;
  let ic = open_in_bin path in
  let vals = List.init 6 (fun _ -> Trace_format.read_varint ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check (list int)) "roundtrip" [ 0; 1; 127; 128; 300; 1 lsl 40 ] vals;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Trace_format.write_varint: negative")
    (fun () -> Trace_format.write_varint buf (-1))

(* Every malformed input must surface as a structured Corrupt_trace
   carrying the path — never a bare End_of_file or Corrupt. *)
let expect_corrupt ~what path f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a structured corrupt-trace error" what
  | exception Error.E (Error.Corrupt_trace { path = p; offset; events_read; _ })
    ->
    Alcotest.(check (option string)) (what ^ ": path carried") (Some path) p;
    (offset, events_read)
  | exception exn ->
    Alcotest.failf "%s: expected Error.E (Corrupt_trace _), got %s" what
      (Printexc.to_string exn)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_bad_magic () =
  let path = tmp_file () in
  write_file path "NOPE!";
  let offset, events_read =
    expect_corrupt ~what:"bad magic" path (fun () -> Trace_reader.read_file path)
  in
  Alcotest.(check int) "at offset 0" 0 offset;
  Alcotest.(check int) "no events" 0 events_read;
  Sys.remove path

let test_short_header () =
  (* a file shorter than the header must not leak End_of_file *)
  let path = tmp_file () in
  List.iter
    (fun prefix ->
      write_file path prefix;
      ignore
        (expect_corrupt ~what:"short header" path (fun () ->
             Trace_reader.read_file path)
          : int * int))
    [ ""; "D"; "DGR"; "DGRT" ];
  Sys.remove path

let test_truncated_event () =
  let path = tmp_file () in
  let (), _ = Trace_writer.to_file path (fun sink -> List.iter sink sample_events) in
  (* chop the file mid-record *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  write_file path (String.sub full 0 (String.length full - 1));
  let offset, events_read =
    expect_corrupt ~what:"truncation" path (fun () ->
        Trace_reader.read_file path)
  in
  Alcotest.(check bool) "events decoded before the cut" true (events_read > 0);
  Alcotest.(check bool) "offset inside file" true
    (offset > 0 && offset < String.length full);
  Sys.remove path

(* The generative truncation sweep: cut a valid trace at EVERY byte
   offset.  Strict reading must end in either success (boundary cut) or
   a structured error; resync must never raise and must salvage at
   least every event the strict reader decoded before the cut. *)
let test_truncate_every_offset () =
  let path = tmp_file () in
  let (), _ = Trace_writer.to_file path (fun sink -> List.iter sink sample_events) in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let len = String.length full in
  let cut_path = tmp_file () in
  for cut = 0 to len - 1 do
    write_file cut_path (String.sub full 0 cut);
    let strict =
      match Trace_reader.read_file cut_path with
      | events -> List.length events
      | exception Error.E (Error.Corrupt_trace c) -> c.events_read
      | exception exn ->
        Alcotest.failf "cut at %d: unstructured exception %s" cut
          (Printexc.to_string exn)
    in
    let salvaged, r =
      match Trace_reader.read_file_resync cut_path with
      | res -> res
      | exception exn ->
        Alcotest.failf "cut at %d: resync raised %s" cut
          (Printexc.to_string exn)
    in
    if List.length salvaged < strict then
      Alcotest.failf "cut at %d: resync salvaged %d < strict %d" cut
        (List.length salvaged) strict;
    if r.Trace_reader.events <> List.length salvaged then
      Alcotest.failf "cut at %d: recovery report miscounts events" cut;
    if r.Trace_reader.gaps = 0 && r.Trace_reader.dropped_bytes <> 0 then
      Alcotest.failf "cut at %d: dropped bytes without a gap" cut
  done;
  Sys.remove cut_path

let test_resync_middle_corruption () =
  (* corrupt a byte in the middle: resync must report exactly one gap
     and deliver events from both sides of it *)
  let path = tmp_file () in
  let (), total =
    Trace_writer.to_file path (fun sink ->
        for _ = 1 to 20 do List.iter sink sample_events done)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  let bytes = Bytes.of_string full in
  (* an unknown tag in the record stream *)
  Bytes.set bytes (Bytes.length bytes / 2) '\xee';
  write_file path (Bytes.to_string bytes);
  (match Trace_reader.read_file_resync path with
   | salvaged, r ->
     Alcotest.(check bool) "has gaps" true (r.Trace_reader.gaps >= 1);
     Alcotest.(check bool) "salvaged most events" true
       (List.length salvaged > total / 2);
     Alcotest.(check bool) "structured errors recorded" true
       (List.length r.Trace_reader.errors = r.Trace_reader.gaps)
   | exception exn ->
     Alcotest.failf "resync raised %s" (Printexc.to_string exn));
  Sys.remove path

let test_empty_trace () =
  let n, back = roundtrip [] in
  Alcotest.(check int) "count" 0 n;
  Alcotest.(check int) "empty" 0 (List.length back)

let test_fold_file () =
  let path = tmp_file () in
  let (), _ = Trace_writer.to_file path (fun sink -> List.iter sink sample_events) in
  let n = Trace_reader.fold_file path (fun acc _ -> acc + 1) 0 in
  Sys.remove path;
  Alcotest.(check int) "fold count" (List.length sample_events) n

(* qcheck: arbitrary event lists survive the round-trip *)
let arb_event =
  let open QCheck.Gen in
  let tid = int_bound 50 in
  let addr = int_bound 0xffff in
  let size = oneofl [ 1; 2; 4; 8; 64 ] in
  let loc = oneofl [ ""; "a"; "some:place"; "other" ] in
  let sync = oneofl Event.[ Lock; Barrier; Flag; Atomic ] in
  QCheck.make
    (oneof
       [
         map (fun (t, a, (s, l)) -> Event.Access { tid = t; kind = Read; addr = a; size = s; loc = l })
           (triple tid addr (pair size loc));
         map (fun (t, a, (s, l)) -> Event.Access { tid = t; kind = Write; addr = a; size = s; loc = l })
           (triple tid addr (pair size loc));
         map (fun (t, l, s) -> Event.Acquire { tid = t; lock = l; sync = s }) (triple tid (int_bound 100) sync);
         map (fun (t, l, s) -> Event.Release { tid = t; lock = l; sync = s }) (triple tid (int_bound 100) sync);
         map (fun (p, c) -> Event.Fork { parent = p; child = c }) (pair tid tid);
         map (fun (p, c) -> Event.Join { parent = p; child = c }) (pair tid tid);
         map (fun (t, a, s) -> Event.Alloc { tid = t; addr = a; size = s }) (triple tid addr (int_bound 1024));
         map (fun (t, a, s) -> Event.Free { tid = t; addr = a; size = s }) (triple tid addr (int_bound 1024));
         map (fun t -> Event.Thread_exit { tid = t }) tid;
       ])

let qcheck_roundtrip =
  QCheck.Test.make ~name:"random event lists round-trip" ~count:100
    (QCheck.small_list arb_event) (fun events ->
      let _, back = roundtrip events in
      List.map Event.to_string back = List.map Event.to_string events)

(* ------------------------------------------------------------------ *)
(* The committed-by-rule corpus (test/corpus/gen_corpus.ml): known
   traces with pinned event counts and verdicts.  Any change to the
   trace encoding, the bounds-checked reader, or the resync scanner
   shows up here as a loud count/verdict mismatch instead of a silent
   re-record. *)

(* resolve next to the test binary so both `dune runtest` (cwd = test
   dir) and `dune exec test/test_main.exe` (cwd = project root) work *)
let corpus name =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat "corpus" name)

let replay_corpus name =
  Tutil.(
    analyze
      (config Dgrace_core.Spec.dynamic)
      (event_list (Trace_reader.read_file (corpus name))))

let test_corpus_clean () =
  let events = Trace_reader.read_file (corpus "clean.trace") in
  Alcotest.(check int) "pinned event count" 22 (List.length events);
  let s = replay_corpus "clean.trace" in
  Alcotest.(check int) "race free" 0 s.race_count

let test_corpus_racy () =
  let events = Trace_reader.read_file (corpus "racy.trace") in
  Alcotest.(check int) "pinned event count" 18 (List.length events);
  let s = replay_corpus "racy.trace" in
  Alcotest.(check int) "exactly the seeded race" 1 s.race_count;
  let r = List.hd s.races in
  Alcotest.(check int) "on the shared counter" 0x1000 r.Report.addr

let test_corpus_deadlock_adjacent () =
  let events = Trace_reader.read_file (corpus "deadlock_adjacent.trace") in
  Alcotest.(check int) "pinned event count" 16 (List.length events);
  (* opposite lock orders, but serialised: both writes are ordered
     through the common locks, so happens-before stays race-free *)
  let s = replay_corpus "deadlock_adjacent.trace" in
  Alcotest.(check int) "race free despite the hazard" 0 s.race_count;
  (* a well-formed trace resyncs to itself: no gaps, nothing dropped *)
  let back, r = Trace_reader.read_file_resync (corpus "deadlock_adjacent.trace") in
  Alcotest.(check int) "resync finds every event" 16 (List.length back);
  Alcotest.(check int) "no gaps" 0 r.Trace_reader.gaps

let test_corpus_truncated () =
  (* strict mode: structured failure, never a bare exception *)
  (match Trace_reader.read_file (corpus "truncated.trace") with
   | _ -> Alcotest.fail "strict read of a truncated trace must fail"
   | exception Error.E (Error.Corrupt_trace { events_read; _ }) ->
     Alcotest.(check bool) "decoded a strict prefix" true
       (events_read > 0 && events_read < 18)
   | exception e ->
     Alcotest.fail ("expected Corrupt_trace, got " ^ Printexc.to_string e));
  (* resync mode: the decodable prefix is salvaged and accounted for *)
  let events, r = Trace_reader.read_file_resync (corpus "truncated.trace") in
  Alcotest.(check bool) "salvaged a prefix" true
    (List.length events > 0 && List.length events < 18);
  Alcotest.(check bool) "the damage is on the books" true
    (r.Trace_reader.gaps >= 1)

(* v2 twins: same events through the blocked column format, and the
   batched replay path agrees with the per-event verdicts above. *)

let replay_corpus_v2_batched name =
  Tutil.(analyze (config Dgrace_core.Spec.dynamic) (v2_batches (corpus name)))

let test_corpus_v2_twins () =
  List.iter
    (fun (name, count, races) ->
      let v1 = Trace_reader.read_file (corpus name) in
      let v2 = Trace_format_v2.read_file (corpus (name ^ ".v2")) in
      Alcotest.(check (list string))
        (name ^ ": v2 twin carries the same events")
        (List.map Event.to_string v1)
        (List.map Event.to_string v2);
      Alcotest.(check int) (name ^ ": pinned count") count (List.length v2);
      let s = replay_corpus_v2_batched (name ^ ".v2") in
      Alcotest.(check int) (name ^ ": batched v2 verdict") races s.race_count;
      Alcotest.(check int)
        (name ^ ": per-event verdict agrees")
        (replay_corpus name).race_count s.race_count)
    [
      ("clean.trace", 22, 0);
      ("racy.trace", 18, 1);
      ("deadlock_adjacent.trace", 16, 0);
      ("straddle.trace", 8, 1);
    ]

let test_corpus_v2_truncated () =
  match Trace_format_v2.read_file (corpus "truncated.trace.v2") with
  | _ -> Alcotest.fail "strict read of a truncated v2 trace must fail"
  | exception Error.E (Error.Corrupt_trace { events_read; _ }) ->
    Alcotest.(check bool) "failed before racy's event count" true
      (events_read >= 0 && events_read < 18)
  | exception e ->
    Alcotest.fail ("expected Corrupt_trace, got " ^ Printexc.to_string e)

(* The straddling access welds the two 4 KiB lines it touches into one
   super-granule, so an address-partitioned replay keeps both racing
   accesses on one shard and the verdict matches the sequential run. *)
let test_corpus_straddle_welds () =
  let events = Trace_reader.read_file (corpus "straddle.trace") in
  Alcotest.(check int) "pinned event count" 8 (List.length events);
  let seq = replay_corpus "straddle.trace" in
  Alcotest.(check int) "sequential sees the race" 1 seq.race_count;
  List.iter
    (fun shards ->
      let r, _ =
        Dgrace_par.Par.analyze_pipelined
          ~make:(fun _ -> Dgrace_core.Spec.to_detector Dgrace_core.Spec.dynamic)
          ~shards ~granule:Dgrace_detectors.Dynamic_granularity.share_granule
          (corpus "straddle.trace.v2")
      in
      Alcotest.(check int)
        (Printf.sprintf "shards=%d: race survives sharding" shards)
        1
        (List.length (Dgrace_par.Par.merged_races r)))
    [ 2; 4 ]

let suites : unit Alcotest.test list =
    [
      ( "trace.format",
        [
          Alcotest.test_case "varint" `Quick test_varint;
          Alcotest.test_case "over-long location refused" `Quick
            test_long_location_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "short header" `Quick test_short_header;
          Alcotest.test_case "truncated event" `Quick test_truncated_event;
          Alcotest.test_case "truncate at every offset" `Quick
            test_truncate_every_offset;
          Alcotest.test_case "resync mid-file corruption" `Quick
            test_resync_middle_corruption;
        ] );
      ( "trace.corpus",
        [
          Alcotest.test_case "clean" `Quick test_corpus_clean;
          Alcotest.test_case "racy" `Quick test_corpus_racy;
          Alcotest.test_case "deadlock-adjacent" `Quick
            test_corpus_deadlock_adjacent;
          Alcotest.test_case "truncated" `Quick test_corpus_truncated;
          Alcotest.test_case "v2 twins" `Quick test_corpus_v2_twins;
          Alcotest.test_case "v2 truncated" `Quick test_corpus_v2_truncated;
          Alcotest.test_case "straddle welds share lines" `Quick
            test_corpus_straddle_welds;
        ] );
      ( "trace.roundtrip",
        [
          Alcotest.test_case "all event kinds" `Quick test_roundtrip;
          Alcotest.test_case "empty" `Quick test_empty_trace;
          Alcotest.test_case "fold_file" `Quick test_fold_file;
          Alcotest.test_case "loc interning" `Quick test_loc_interning_compact;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
        ] );
    ]
