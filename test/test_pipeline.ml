(* Differential proof for the engine's v2 replay, which decodes each
   block inline on the detecting domain, and the page-clustered batch
   application (doc/trace.md, doc/shadow.md):

   - the config-lattice law: every source (events, batches, v2 file)
     x observer x detector must match per-event dispatch of the same
     rows to a fresh detector on races (content and order),
     transition counts, exit code and stream stats;
   - a [V2_file] replay must be bit-identical to the batched replay of
     the same file's blocks on races (content and order), stream
     stats, transition counts and exit code — corpus traces and random
     streams;
   - a trace cut at EVERY byte offset must fail through the engine,
     plain or budgeted, with exactly the error [fold_batches] gives
     (same absolute offset, same events_read) after exactly the same
     rows;
   - budget stops must pin the same stop_reason and partial summary;
   - [Trace_pipeline], the two-domain decoder that bench/perf still
     times, delivers exactly [fold_batches]' rows and errors, and its
     batch ring honours its recycling protocol: FIFO, error only after
     drain, abort releases a blocked producer. *)

open Dgrace_events
open Dgrace_trace
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Metrics = Dgrace_obs.Metrics
module Session = Dgrace_serve.Session

let tmp_file () = Filename.temp_file "dgrace" ".trace"
(* resolve next to the test binary so both `dune runtest` (cwd = test
   dir) and `dune exec test/test_main.exe` (cwd = project root) work *)
let corpus name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "corpus" (name ^ ".trace.v2"))
let corpus_names = [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let fold_feed path consume =
  Trace_format_v2.fold_batches path (fun () b -> consume b) ()

let run ?budget ?progress ?sample_every spec source =
  Tutil.(analyze (config ?budget ?progress ?sample_every spec) source)

let report = Alcotest.testable (Fmt.of_to_string Report.to_string) ( = )

let json =
  Alcotest.testable
    (Fmt.of_to_string Dgrace_obs.Json.to_string)
    Dgrace_obs.Json.equal

let transitions_json (s : Engine.summary) =
  match s.transitions with
  | None -> Dgrace_obs.Json.Null
  | Some m -> Dgrace_obs.State_matrix.to_json m

let stats_tuple (s : Engine.summary) =
  let r = s.stats in
  Dgrace_detectors.Run_stats.
    (r.accesses, r.reads, r.writes, r.same_epoch, r.sync_ops, r.allocs, r.frees)

let check_equivalent ~ctx (a : Engine.summary) (b : Engine.summary) =
  Alcotest.(check (list report)) (ctx ^ ": race reports") a.races b.races;
  Alcotest.(check int) (ctx ^ ": race count") a.race_count b.race_count;
  Alcotest.(check int) (ctx ^ ": suppressed") a.suppressed b.suppressed;
  Alcotest.check json (ctx ^ ": transitions") (transitions_json a)
    (transitions_json b);
  Alcotest.(check int)
    (ctx ^ ": exit code")
    (Engine.exit_code_of_summary a)
    (Engine.exit_code_of_summary b);
  if stats_tuple a <> stats_tuple b then
    Alcotest.failf "%s: stream stats differ" ctx

(* boolean form for qcheck laws *)
let equivalent (a : Engine.summary) (b : Engine.summary) =
  List.map Report.to_string a.races = List.map Report.to_string b.races
  && a.race_count = b.race_count
  && Dgrace_obs.Json.equal (transitions_json a) (transitions_json b)
  && stats_tuple a = stats_tuple b

(* ------------------------------------------------------------------ *)
(* batch ring protocol *)

exception Boom

let test_ring_fifo () =
  let ring = Batch_ring.create ~slots:4 () in
  for i = 1 to 3 do
    match Batch_ring.acquire ring with
    | None -> Alcotest.fail "acquire returned None without an abort"
    | Some b ->
      Alcotest.(check int) "acquired batch is cleared" 0 (Batch.length b);
      Batch.push b ~off:i (Event.Thread_exit { tid = i });
      Batch_ring.publish ring b
  done;
  Batch_ring.close ring;
  for i = 1 to 3 do
    match Batch_ring.take ring with
    | None -> Alcotest.failf "ring drained %d batches early" (3 - i + 1)
    | Some b ->
      Alcotest.(check int) "FIFO order" i b.Batch.off.(0);
      Batch_ring.recycle ring b
  done;
  (match Batch_ring.take ring with
   | None -> ()
   | Some _ -> Alcotest.fail "batch after clean close drained");
  Alcotest.(check int) "blocks counted" 3 (Batch_ring.blocks ring)

let test_ring_error_after_drain () =
  (* a close error reaches the consumer only once every published
     batch was taken — the pipeline's corruption-offset guarantee *)
  let ring = Batch_ring.create ~slots:4 () in
  (match Batch_ring.acquire ring with
   | Some b ->
     Batch.push b (Event.Thread_exit { tid = 7 });
     Batch_ring.publish ring b
   | None -> Alcotest.fail "acquire");
  Batch_ring.close ~error:Boom ring;
  (match Batch_ring.take ring with
   | Some b -> Batch_ring.recycle ring b
   | None -> Alcotest.fail "published batch lost behind the error");
  match Batch_ring.take ring with
  | exception Boom -> ()
  | _ -> Alcotest.fail "close error not re-raised after drain"

let test_ring_abort_unblocks () =
  let ring = Batch_ring.create ~slots:2 () in
  let producer =
    Domain.spawn (fun () ->
        let published = ref 0 in
        let rec loop () =
          match Batch_ring.acquire ring with
          | None -> !published  (* woken by abort *)
          | Some b ->
            incr published;
            Batch_ring.publish ring b;
            loop ()
        in
        loop ())
  in
  (* consume one batch so the producer is demonstrably running, then
     abort while it is (or is about to be) blocked on a full ring *)
  (match Batch_ring.take ring with
   | Some b -> Batch_ring.recycle ring b
   | None -> Alcotest.fail "no batch from producer");
  Batch_ring.abort ring;
  let published = Domain.join producer in
  Alcotest.(check bool) "producer published then stopped" true (published >= 1)

(* ------------------------------------------------------------------ *)
(* feed: row-for-row agreement with the sequential reader *)

let rows_of feed path =
  let rows = ref [] in
  feed path (fun b ->
      for i = 0 to Batch.length b - 1 do
        rows := (b.Batch.off.(i), Event.to_string (Batch.event b i)) :: !rows
      done);
  List.rev !rows

let test_feed_matches_fold () =
  List.iter
    (fun name ->
      let path = corpus name in
      let seq = rows_of fold_feed path in
      let blocks = ref 0 in
      let pipe =
        rows_of
          (fun p consume ->
            let s = Trace_pipeline.feed p consume in
            blocks := s.Trace_pipeline.blocks)
          path
      in
      if seq <> pipe then Alcotest.failf "%s: rows differ" name;
      Alcotest.(check bool) (name ^ ": blocks counted") true (!blocks >= 1))
    corpus_names

(* ------------------------------------------------------------------ *)
(* engine-level differential on the corpus *)

let diff_corpus name () =
  let path = corpus name in
  let events = Trace_format_v2.read_file path in
  List.iter
    (fun spec ->
      let seq = run spec (Tutil.v2_batches path) in
      let file = run spec (Engine.Source.V2_file path) in
      let ctx = Printf.sprintf "%s %s v2 file" name (Spec.name spec) in
      check_equivalent ~ctx seq file;
      let base = run spec (Tutil.event_list events) in
      check_equivalent ~ctx:(ctx ^ " vs events") base file)
    [ Spec.dynamic; Spec.word ]

(* ------------------------------------------------------------------ *)
(* corruption: every truncation offset, engine and pipeline =
   fold_batches *)

type cut_outcome =
  | Clean of int
  | Corrupt of int * int * int
  | Stopped of int
(* Clean rows | Corrupt (rows consumed, absolute offset, events_read) |
   Stopped rows (a budget stop, Engine only) *)

let show_outcome = function
  | Clean r -> Printf.sprintf "clean after %d rows" r
  | Corrupt (r, o, e) ->
    Printf.sprintf "corrupt at byte %d (rows %d, events_read %d)" o r e
  | Stopped r -> Printf.sprintf "budget stop after %d rows" r

let cut_outcome feed path =
  let rows = ref 0 in
  match feed path (fun b -> rows := !rows + Batch.length b) with
  | _ -> Clean !rows
  | exception Error.E (Error.Corrupt_trace c) ->
    Corrupt (!rows, c.offset, c.events_read)

(* [Engine.analyze] of a v2 file, counting the rows its detector
   consumed, batched or per event. *)
let engine_outcome ?budget spec path =
  let rows = ref 0 in
  let d = Spec.to_detector spec in
  let counted =
    {
      d with
      Dgrace_detectors.Detector.on_event =
        (fun ev ->
          incr rows;
          d.on_event ev);
      process_batch =
        Option.map
          (fun pb b ->
            rows := !rows + Batch.length b;
            pb b)
          d.process_batch;
    }
  in
  let config =
    match budget with
    | None -> Engine.Config.of_detector counted
    | Some budget -> { (Engine.Config.of_detector counted) with budget }
  in
  match Engine.analyze config (Engine.Source.V2_file path) with
  | Ok { partial = None; _ } -> Clean !rows
  | Ok { partial = Some _; _ } -> Stopped !rows
  | Error (Error.Corrupt_trace c) -> Corrupt (!rows, c.offset, c.events_read)
  | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)

(* A v2 stream of nine 5-row blocks, so a cut lands in any block and
   the rows before it vary. *)
let test_truncate_every_offset_engine () =
  let full =
    Test_trace_v2.v2_blocks
      (List.concat (List.init 3 (fun _ -> Test_trace_v2.sample_events)))
      (List.init 9 (fun _ -> 5))
  in
  let cut_path = tmp_file () in
  for cut = 0 to String.length full do
    write_file cut_path (String.sub full 0 cut);
    let seq = cut_outcome fold_feed cut_path in
    let check what want got =
      if want <> got then
        Alcotest.failf "cut at %d: fold_batches %s, engine%s %s" cut
          (show_outcome want) what (show_outcome got)
    in
    List.iter
      (fun spec ->
        check "" seq (engine_outcome spec cut_path);
        List.iter
          (fun limit ->
            (* the guard stops at event [limit + 1], once it is decoded;
               a corrupt block right after [limit] rows still fails *)
            let want =
              match seq with
              | Clean r | Corrupt (r, _, _) when r > limit -> Stopped limit
              | o -> o
            in
            check
              (Printf.sprintf " --max-events %d" limit)
              want
              (engine_outcome ~budget:(Budget.make ~max_events:limit ()) spec
                 cut_path))
          [ 20; 22 ])
      [ Spec.dynamic; Spec.byte ]
  done;
  Sys.remove cut_path

let test_truncate_every_offset_pipelined () =
  let path = tmp_file () in
  let (), _ =
    Trace_format_v2.to_file path (fun sink ->
        for _ = 1 to 3 do
          List.iter sink Test_trace_v2.sample_events
        done)
  in
  let full = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let cut_path = tmp_file () in
  for cut = 0 to String.length full - 1 do
    write_file cut_path (String.sub full 0 cut);
    let seq = cut_outcome fold_feed cut_path in
    let pipe =
      cut_outcome (fun p consume -> ignore (Trace_pipeline.feed p consume))
        cut_path
    in
    if seq <> pipe then
      Alcotest.failf "cut at %d: sequential %s, pipelined %s" cut
        (show_outcome seq) (show_outcome pipe)
  done;
  Sys.remove cut_path

let test_corrupt_corpus_error_identity () =
  (* the bundled truncated trace, through the full engine *)
  let path = corpus "truncated" in
  let run source =
    match Engine.analyze (Tutil.config Spec.dynamic) source with
    | Ok _ -> None
    | Error e -> Some e
  in
  let seq = run (Tutil.v2_batches path) in
  let file = run (Engine.Source.V2_file path) in
  let err = Alcotest.testable (Fmt.of_to_string Error.to_string) ( = ) in
  Alcotest.(check (option err)) "v2 file error identical" seq file;
  Alcotest.(check bool) "it is an error" true (seq <> None)

(* ------------------------------------------------------------------ *)
(* budget stop identity *)

let test_budget_stop_identity () =
  let path = corpus "racy" in
  List.iter
    (fun limit ->
      let budget = Budget.make ~max_events:limit () in
      let seq = run ~budget Spec.dynamic (Tutil.v2_batches path) in
      let file = run ~budget Spec.dynamic (Engine.Source.V2_file path) in
      let stop = function
        | None -> "none"
        | Some s -> Budget.stop_to_string s
      in
      let ctx = Printf.sprintf "max_events=%d" limit in
      Alcotest.(check string)
        (ctx ^ ": stop reason")
        (stop seq.partial) (stop file.partial);
      check_equivalent ~ctx seq file)
    [ 1; 5; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* serve: split decode/apply = inline feed_batch_frame *)

let test_session_pipelined_feed () =
  let bodies =
    (* several blocks so location interning crosses frames *)
    let enc = Trace_format_v2.block_encoder () in
    List.map
      (fun events -> Trace_format_v2.encode_body enc (Batch.of_events events))
      [
        Test_trace_v2.sample_events;
        Test_trace_v2.sample_events;
        [
          Event.Access
            { tid = 0; kind = Write; addr = 0x40; size = 4; loc = "a" };
          Event.Access
            { tid = 1; kind = Write; addr = 0x40; size = 4; loc = "b" };
        ];
      ]
  in
  let inline = Session.open_ ~id:1 ~spec:Spec.dynamic () in
  let split = Session.open_ ~id:2 ~spec:Spec.dynamic () in
  List.iter
    (fun body ->
      let a =
        match Session.feed_batch_frame inline body with
        | Ok ack -> ack
        | Error e -> Alcotest.failf "inline feed failed: %s" (Error.to_string e)
      in
      let b =
        match Session.decode_batch_frame split body with
        | Error e -> Alcotest.failf "decode failed: %s" (Error.to_string e)
        | Ok batch -> (
          match Session.apply_decoded split batch with
          | Ok ack -> ack
          | Error e ->
            Alcotest.failf "apply failed: %s" (Error.to_string e))
      in
      Alcotest.(check int) "ack events" a.Session.ack_events b.Session.ack_events;
      Alcotest.(check (list report)) "ack races" a.Session.new_races
        b.Session.new_races)
    bodies;
  match (Session.finalize inline, Session.finalize split) with
  | Ok a, Ok b -> check_equivalent ~ctx:"session pipelined" a b
  | _ -> Alcotest.fail "finalize failed"

let test_session_decode_error_poisons_in_order () =
  let t = Session.open_ ~id:3 ~spec:Spec.dynamic () in
  match Session.decode_batch_frame t "\xff\xff\xff garbage" with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error e -> (
    (match Session.poison_decoded t e with
     | Ok _ -> Alcotest.fail "poison_decoded returned Ok"
     | Error _ -> ());
    match Session.state t with
    | `Poisoned _ -> ()
    | _ -> Alcotest.fail "session not poisoned")

(* ------------------------------------------------------------------ *)
(* qcheck laws (fixed seed in CI via QCHECK_SEED) *)

let arb_events = QCheck.small_list Test_trace.arb_event

let with_v2 events f =
  let v2 = tmp_file () in
  let (), _ = Trace_format_v2.to_file v2 (fun sink -> List.iter sink events) in
  Fun.protect ~finally:(fun () -> Sys.remove v2) (fun () -> f v2)

(* The config lattice against the per-event oracle.  Accesses crowd
   the edges of three pages, so batches hold page runs, straddles and
   welds; a handful of threads, locks and access locations keeps
   clocks interacting and reorderings visible in the reports.
   The [Batches] source cuts the rows into 37-row batches so batch
   boundaries fall mid-run. *)
let arb_lattice_events =
  let open QCheck.Gen in
  let tid = int_bound 3 in
  let addr =
    map2
      (fun page off -> (page * 4096) + off)
      (int_bound 2)
      (oneof [ int_bound 15; map (fun o -> 4096 - 1 - o) (int_bound 15) ])
  in
  let size = oneofl [ 1; 2; 4; 8 ] in
  let access kind =
    map
      (fun ((t, a), (s, loc)) -> Event.Access { tid = t; kind; addr = a; size = s; loc })
      (pair (pair tid addr) (pair size (oneofl [ "a"; "b"; "c"; "d" ])))
  in
  let sync = oneofl Event.[ Lock; Barrier ] in
  let event =
    frequency
      [
        (6, access Event.Read);
        (6, access Event.Write);
        (1, map (fun (t, l, s) -> Event.Acquire { tid = t; lock = l; sync = s }) (triple tid (int_bound 2) sync));
        (1, map (fun (t, l, s) -> Event.Release { tid = t; lock = l; sync = s }) (triple tid (int_bound 2) sync));
        (1, map (fun (p, c) -> Event.Fork { parent = p; child = c }) (pair tid tid));
        (1, map (fun (p, c) -> Event.Join { parent = p; child = c }) (pair tid tid));
        (1, map (fun (t, a) -> Event.Alloc { tid = t; addr = a; size = 64 }) (pair tid addr));
        (1, map (fun (t, a) -> Event.Free { tid = t; addr = a; size = 64 }) (pair tid addr));
      ]
  in
  QCheck.make
    ~print:(fun evs -> String.concat "\n" (List.map Event.to_string evs))
    (list_size (int_range 0 300) event)

let batches_of_rows ~rows events =
  let arr = Array.of_list events in
  Engine.Source.Batches
    (fun consume ->
      let b = Batch.create ~capacity:rows () in
      Array.iteri
        (fun i ev ->
          Batch.push b ~off:i ev;
          if Batch.is_full b || i = Array.length arr - 1 then begin
            consume b;
            Batch.clear b
          end)
        arr)

let oracle spec events =
  let d = Spec.to_detector spec in
  Batch.iter_events d.on_event (Batch.of_events events);
  d.finish ();
  Engine.summarize_detector d ~elapsed:0. ~partial:None ~degraded:false

(* a budget on all three dimensions that no test stream reaches: the
   guard runs its checks, and the result must not move *)
let never_spent =
  Budget.make ~max_shadow_bytes:max_int ~max_events:max_int ~deadline_s:1e9 ()

let qcheck_config_lattice =
  QCheck.Test.make
    ~name:"pipeline: config lattice = per-event oracle" ~count:30
    arb_lattice_events (fun events ->
      with_v2 events (fun v2 ->
          List.for_all
            (fun spec ->
              let want = oracle spec events in
              List.for_all
                (fun source ->
                  List.for_all
                    (fun (budget, progress, sample_every) ->
                      let got = run ?budget ?progress ?sample_every spec source in
                      List.map Report.to_string want.races
                      = List.map Report.to_string got.races
                      && Dgrace_obs.Json.equal (transitions_json want)
                           (transitions_json got)
                      && Engine.exit_code_of_summary want
                         = Engine.exit_code_of_summary got
                      && stats_tuple want = stats_tuple got)
                    [
                      (None, None, None);
                      (None, Some (7, fun (_ : int) -> ()), None);
                      (None, None, Some 5);
                      (Some never_spent, None, None);
                    ])
                [
                  Tutil.event_list events;
                  batches_of_rows ~rows:37 events;
                  Engine.Source.V2_file v2;
                ])
            [ Spec.dynamic; Spec.byte; Spec.word ]))

(* The name predates inline decoding: [V2_file] once decoded on a
   second domain. *)
let qcheck_pipelined_identical =
  QCheck.Test.make ~name:"pipeline: pipelined replay = sequential batched"
    ~count:25 arb_events (fun events ->
      with_v2 events (fun v2 ->
          List.for_all
            (fun spec ->
              let seq = run spec (Tutil.v2_batches v2) in
              let file = run spec (Engine.Source.V2_file v2) in
              equivalent seq file)
            [ Spec.dynamic; Spec.word ]))

(* ------------------------------------------------------------------ *)
(* batch-granular budgets (Budget_guard): the event limit is exact on
   every source; shadow bytes and the deadline are checked after each
   batch, so they may fire up to one batch late *)

let raytrace_events () =
  Tutil.recorded (Option.get (Dgrace_workloads.Registry.find "raytrace")) 1

let stop_string (s : Engine.summary) =
  match s.partial with None -> "none" | Some st -> Budget.stop_to_string st

let test_max_events_boundary () =
  let events = raytrace_events () in
  let n = Array.length events in
  let evs = Array.to_list events in
  with_v2 evs (fun v2 ->
      List.iter
        (fun spec ->
          List.iter
            (fun limit ->
              let budget = Budget.make ~max_events:limit () in
              (* the heartbeat fires once per multiple of its period,
                 per event or per batch *)
              let beats_of source =
                let beats = ref [] in
                let s =
                  run ~budget ~progress:(1000, fun n -> beats := n :: !beats)
                    spec source
                in
                (s, List.rev !beats)
              in
              let want, want_beats = beats_of (Tutil.event_array events) in
              let ctx = Printf.sprintf "%s max_events=%d" (Spec.name spec) limit in
              Alcotest.(check string) (ctx ^ ": per-event stop")
                (if limit < n then
                   Budget.stop_to_string (Budget.Max_events { limit })
                 else "none")
                (stop_string want);
              Alcotest.(check (list int)) (ctx ^ ": per-event heartbeats")
                (List.init (min limit n / 1000) (fun k -> (k + 1) * 1000))
                want_beats;
              List.iter
                (fun (what, source) ->
                  let got, got_beats = beats_of source in
                  let ctx =
                    Printf.sprintf "%s max_events=%d %s" (Spec.name spec) limit what
                  in
                  Alcotest.(check string) (ctx ^ ": stop reason")
                    (stop_string want) (stop_string got);
                  Alcotest.(check (list int)) (ctx ^ ": heartbeats") want_beats
                    got_beats;
                  check_equivalent ~ctx want got)
                [
                  ("37-row batches", batches_of_rows ~rows:37 evs);
                  ("4096-row batches", batches_of_rows ~rows:4096 evs);
                  ("v2 file", Engine.Source.V2_file v2);
                ])
            [ 1; 4095; 4096; 4097; n - 1; n; n + 1 ])
        [ Spec.dynamic; Spec.byte ])

(* The analysis of the first [k] events, unbudgeted. *)
let prefix_run spec events k =
  run spec (Tutil.event_array (Array.sub events 0 k))

let check_same_prefix ~ctx (want : Engine.summary) (got : Engine.summary) =
  Alcotest.(check (list report)) (ctx ^ ": races") want.races got.races;
  if stats_tuple want <> stats_tuple got then
    Alcotest.failf "%s: stream stats differ" ctx

let test_deadline_lateness () =
  let events = raytrace_events () in
  with_v2 (Array.to_list events) (fun v2 ->
      (* one second per clock reading: the start reads 0 s, then the
         batch source reads once per batch and the per-event source
         once per 256 events; 3 s is the first reading past 2.5 s *)
      let budgeted source =
        Tutil.analyze
          {
            (Tutil.config ~budget:(Budget.make ~deadline_s:2.5 ()) Spec.dynamic) with
            Engine.Config.clock = Dgrace_obs.Clock.ticker ~step:1_000_000_000 ();
          }
          source
      in
      let deadline_stop (s : Engine.summary) =
        match s.partial with
        | Some (Budget.Deadline { limit_s; elapsed_s }) -> (limit_s, elapsed_s)
        | _ -> Alcotest.failf "expected a deadline stop, got %s" (stop_string s)
      in
      let blocks =
        List.rev
          (Trace_format_v2.fold_batches v2
             (fun acc b -> Batch.length b :: acc)
             [])
      in
      let first3 = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 3) blocks) in
      Alcotest.(check bool) "trace longer than three blocks" true
        (List.length blocks > 3);
      let v2_run = budgeted (Engine.Source.V2_file v2) in
      Alcotest.(check (pair (float 0.) (float 0.)))
        "v2: stops at the third batch boundary" (2.5, 3.0) (deadline_stop v2_run);
      check_same_prefix ~ctx:"v2: analysed exactly three blocks"
        (prefix_run Spec.dynamic events first3) v2_run;
      let ev_run = budgeted (Tutil.event_array events) in
      Alcotest.(check (pair (float 0.) (float 0.)))
        "events: stops at the third poll" (2.5, 3.0) (deadline_stop ev_run);
      check_same_prefix ~ctx:"events: analysed exactly 768 events"
        (prefix_run Spec.dynamic events 768) ev_run)

let test_shadow_lateness () =
  let events = raytrace_events () in
  with_v2 (Array.to_list events) (fun v2 ->
      let cap = 320_000 in
      let d = Spec.to_detector Spec.dynamic in
      (* every heartbeat runs after its batch's shed loop: by then the
         accounting is back under the cap, or the guard has stopped *)
      let over = ref 0 and beats = ref 0 in
      let check_cap (_ : int) =
        incr beats;
        if Dgrace_shadow.Accounting.current_bytes d.Dgrace_detectors.Detector.account > cap
        then incr over
      in
      let s =
        Tutil.analyze
          {
            (Engine.Config.of_detector d) with
            Engine.Config.budget = Budget.make ~max_shadow_bytes:cap ();
            progress = Some (1, check_cap);
          }
          (Engine.Source.V2_file v2)
      in
      Alcotest.(check bool) "degraded" true s.degraded;
      Alcotest.(check bool) "degrade.passes > 0" true
        (Option.value ~default:0 (Metrics.find_counter s.metrics "degrade.passes") > 0);
      Alcotest.(check int) "batched, no fallback" 0
        (Option.value ~default:0 (Metrics.find_counter s.metrics "engine.batch_fallback"));
      Alcotest.(check bool) "heartbeats ran" true (!beats > 0);
      Alcotest.(check int) "over the cap after a shed loop" 0 !over;
      match s.partial with
      | None | Some (Budget.Shadow_bytes _) -> ()
      | Some st -> Alcotest.failf "unexpected stop: %s" (Budget.stop_to_string st))

let suites : unit Alcotest.test list =
  [
    ( "pipeline.ring",
      [
        Alcotest.test_case "fifo + clean close" `Quick test_ring_fifo;
        Alcotest.test_case "error only after drain" `Quick
          test_ring_error_after_drain;
        Alcotest.test_case "abort unblocks producer" `Quick
          test_ring_abort_unblocks;
      ] );
    ( "pipeline.feed",
      [
        Alcotest.test_case "rows match sequential reader" `Quick
          test_feed_matches_fold;
        Alcotest.test_case "truncate at every offset" `Quick
          test_truncate_every_offset_pipelined;
      ] );
    ( "pipeline.engine",
      List.map
        (fun name ->
          Alcotest.test_case ("corpus differential: " ^ name) `Quick
            (diff_corpus name))
        corpus_names
      @ [
          Alcotest.test_case "corrupt corpus error identity" `Quick
            test_corrupt_corpus_error_identity;
          Alcotest.test_case "truncate at every offset" `Quick
            test_truncate_every_offset_engine;
          Alcotest.test_case "budget stop identity" `Quick
            test_budget_stop_identity;
          QCheck_alcotest.to_alcotest qcheck_config_lattice;
          QCheck_alcotest.to_alcotest qcheck_pipelined_identical;
        ] );
    ( "pipeline.budget",
      [
        Alcotest.test_case "max-events boundary law" `Quick
          test_max_events_boundary;
        Alcotest.test_case "deadline lateness" `Quick test_deadline_lateness;
        Alcotest.test_case "shadow-bytes lateness" `Quick test_shadow_lateness;
      ] );
    ( "pipeline.serve",
      [
        Alcotest.test_case "split decode/apply = inline" `Quick
          test_session_pipelined_feed;
        Alcotest.test_case "decode error poisons in order" `Quick
          test_session_decode_error_poisons_in_order;
      ] );
  ]
