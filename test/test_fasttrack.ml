(* FastTrack semantics, checked by feeding hand-built event streams:
   the read/write rules of §II.C, the epoch optimisation, the adaptive
   read representation, and the same-epoch fast path. *)

open Dgrace_detectors
open Tutil

let byte () = Dgrace_core.Spec.to_detector Dgrace_core.Spec.byte
let word () = Fasttrack.create ~granularity:4 ()

let check_races name det events expected =
  let d = feed_events (det ()) events in
  Alcotest.(check int) name expected (race_count d)

(* write-write, unordered -> race *)
let test_ww_race () =
  let evs = [ fork 0 1; wr 0 0x100; wr 1 0x100 ] in
  check_races "byte" byte evs 1;
  check_races "word" word evs 1

(* write then read, unordered -> race *)
let test_wr_race () =
  let evs = [ fork 0 1; wr 0 0x100; rd 1 0x100 ] in
  check_races "byte" byte evs 1

(* read then write, unordered -> race *)
let test_rw_race () =
  let evs = [ fork 0 1; rd 1 0x100; wr 0 0x100 ] in
  check_races "byte" byte evs 1

(* read/read is never a race *)
let test_rr_no_race () =
  let evs = [ fork 0 1; rd 0 0x100; rd 1 0x100; rd 0 0x100 ] in
  check_races "byte" byte evs 0

(* lock-ordered accesses are fine *)
let test_lock_ordered () =
  let evs =
    [ fork 0 1; acq 0; wr 0 0x100; rel 0; acq 1; wr 1 0x100; rel 1 ]
  in
  check_races "byte" byte evs 0

(* fork edge orders parent-before-child *)
let test_fork_edge () =
  let evs = [ wr 0 0x100; fork 0 1; rd 1 0x100; wr 1 0x100 ] in
  check_races "byte" byte evs 0

(* join edge orders child-before-parent *)
let test_join_edge () =
  let evs = [ fork 0 1; wr 1 0x100; Dgrace_events.Event.Thread_exit { tid = 1 }; join 0 1; wr 0 0x100 ] in
  check_races "byte" byte evs 0

(* read-shared: two ordered readers then an unordered writer races with
   BOTH recorded reads (the vector-clock read representation) *)
let test_read_shared_write () =
  let evs =
    [
      fork 0 1;
      fork 0 2;
      (* unordered reads by t1 and t2 inflate the read state to a full
         vector clock (read-shared) — and are not a race *)
      rd 1 0x100;
      rd 2 0x100;
      (* t0's unordered write races with the recorded reads *)
      wr 0 0x100;
    ]
  in
  check_races "byte" byte evs 1

(* a write ordered after all reads resets the read state: the next
   read in a new epoch is checked against the write only *)
let test_write_resets_reads () =
  let evs =
    [
      fork 0 1;
      fork 0 2;
      rd 1 0x100;
      rd 2 0x100;  (* read-shared vector clock *)
      Dgrace_events.Event.Thread_exit { tid = 1 };
      Dgrace_events.Event.Thread_exit { tid = 2 };
      join 0 1;
      join 0 2;
      wr 0 0x100;  (* ordered after both reads: no race, resets reads *)
      fork 0 3;
      rd 3 0x100;  (* ordered after the write: no race *)
    ]
  in
  check_races "byte" byte evs 0

(* same-epoch accesses are filtered: the stats must show it *)
let test_same_epoch_stat () =
  let d =
    feed_events (byte ())
      [ wr 0 0x100; wr 0 0x100; rd 0 0x100; rd 0 0x100; rd 0 0x104 ]
  in
  Alcotest.(check int) "accesses" 5 d.Detector.stats.accesses;
  Alcotest.(check int) "same-epoch filtered" 2 d.Detector.stats.same_epoch

(* after a lock release the epoch changes and the bitmap resets *)
let test_epoch_boundary_resets_bitmap () =
  let d = feed_events (byte ()) [ wr 0 0x100; acq 0; rel 0; wr 0 0x100 ] in
  Alcotest.(check int) "second write re-analysed" 0 d.Detector.stats.same_epoch

(* first race per location: racing repeatedly on one address yields one
   report *)
let test_first_race_per_location () =
  let evs = [ fork 0 1; wr 0 0x100; wr 1 0x100; wr 0 0x100; wr 1 0x100 ] in
  check_races "byte" byte evs 1

(* word granularity conflates sub-word fields; byte does not *)
let test_word_conflation () =
  let evs =
    [
      fork 0 1;
      (* two adjacent bytes, each consistently lock-protected by its
         own thread's lock *)
      acq 0; wr ~size:1 0 0x100; rel 0;
      Dgrace_events.Event.Acquire { tid = 1; lock = 2; sync = Dgrace_events.Event.Lock };
      wr ~size:1 1 0x101;
      Dgrace_events.Event.Release { tid = 1; lock = 2; sync = Dgrace_events.Event.Lock };
    ]
  in
  check_races "byte precise" byte evs 0;
  check_races "word false alarm" word evs 1

(* free() retires shadow state: a recycled address does not conflict
   with the old allocation *)
let test_free_resets () =
  let evs =
    [
      fork 0 1;
      Dgrace_events.Event.Alloc { tid = 0; addr = 0x200; size = 8 };
      wr 0 0x200;
      free 0 0x200 8;
      (* same address reallocated; t1's access ordered only by the
         malloc (modelled here as nothing): would be a false race
         without the free handling, but the write history is gone.
         The new owner writes it alone: no race. *)
      Dgrace_events.Event.Alloc { tid = 1; addr = 0x200; size = 8 };
      wr 1 0x200;
      wr 1 0x204;
    ]
  in
  check_races "byte" byte evs 0;
  check_races "word" word evs 0

(* memory accounting: cells are created and retired *)
let test_accounting_lifecycle () =
  let open Dgrace_shadow in
  let d =
    feed_events (word ())
      [
        Dgrace_events.Event.Alloc { tid = 0; addr = 0x300; size = 16 };
        wr 0 0x300; wr 0 0x304; wr 0 0x308; wr 0 0x30c;
        free 0 0x300 16;
      ]
  in
  Alcotest.(check int) "peak vcs" 4 (Accounting.peak_vcs d.Detector.account);
  Alcotest.(check int) "all retired" 0 (Accounting.live_vcs d.Detector.account)

(* A same-epoch probe must cover every byte of the access.  t1's two
   one-byte writes mark 0x1000 and 0x1003; its 4-byte write then
   covers 0x1001, which t2 wrote concurrently.  A probe of the two
   ends alone called it same-epoch and missed the race. *)
let missed_race_events =
  [
    fork 0 1; fork 0 2;
    wr ~size:1 2 0x1001;
    wr ~size:1 1 0x1000;
    wr ~size:1 1 0x1003;
    wr ~size:4 1 0x1000;
  ]

let covers addr (r : Dgrace_events.Report.t) = r.granule_lo <= addr && addr < r.granule_hi

let test_interior_byte_race () =
  let module Spec = Dgrace_core.Spec in
  List.iter
    (fun spec ->
      let check what races =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: race on 0x1001" (Spec.name spec) what)
          true
          (List.exists (covers 0x1001) races)
      in
      check "per event"
        (Tutil.analyze (Tutil.config spec) (Tutil.event_list missed_race_events))
          .races;
      check "batched"
        (Tutil.analyze (Tutil.config spec)
           (Dgrace_core.Engine.Source.Batches
              (fun consume ->
                consume (Dgrace_events.Batch.of_events missed_race_events))))
          .races)
    Spec.[ byte; Djit { granularity = 1 }; dynamic ]

let suites : unit Alcotest.test list =
  [
    ( "fasttrack.rules",
      [
        Alcotest.test_case "write-write race" `Quick test_ww_race;
        Alcotest.test_case "write-read race" `Quick test_wr_race;
        Alcotest.test_case "read-write race" `Quick test_rw_race;
        Alcotest.test_case "read-read is no race" `Quick test_rr_no_race;
        Alcotest.test_case "lock ordering" `Quick test_lock_ordered;
        Alcotest.test_case "fork edge" `Quick test_fork_edge;
        Alcotest.test_case "join edge" `Quick test_join_edge;
        Alcotest.test_case "read-shared vector clock" `Quick test_read_shared_write;
        Alcotest.test_case "write resets read state" `Quick test_write_resets_reads;
        Alcotest.test_case "first race per location" `Quick test_first_race_per_location;
      ] );
    ( "fasttrack.mechanics",
      [
        Alcotest.test_case "same-epoch stat" `Quick test_same_epoch_stat;
        Alcotest.test_case "epoch boundary resets bitmap" `Quick test_epoch_boundary_resets_bitmap;
        Alcotest.test_case "word conflation" `Quick test_word_conflation;
        Alcotest.test_case "free retires shadow" `Quick test_free_resets;
        Alcotest.test_case "accounting lifecycle" `Quick test_accounting_lifecycle;
        Alcotest.test_case "interior byte of a probe" `Quick test_interior_byte_race;
      ] );
  ]
