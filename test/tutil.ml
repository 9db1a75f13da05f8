(* Shared helpers for the detector tests: run programs or raw event
   lists under detectors and extract comparable race summaries. *)

open Dgrace_events
open Dgrace_detectors
open Dgrace_sim

let run_detector ?policy (d : Detector.t) prog =
  let _ = Sim.run ?policy ~sink:d.on_event prog in
  d.finish ();
  d

let feed_events (d : Detector.t) events =
  List.iter d.on_event events;
  d.finish ();
  d

let races d = Detector.races d
let race_count d = Detector.race_count d

(* Every byte covered by some reported granule, for cross-detector
   comparison independent of reporting units. *)
let racy_bytes d =
  List.fold_left
    (fun acc (r : Report.t) ->
      let rec add acc a = if a >= r.granule_hi then acc else add (a :: acc) (a + 1) in
      add acc r.granule_lo)
    [] (races d)
  |> List.sort_uniq compare

(* Hand-built event streams: a tiny two-thread vocabulary.  [lock]/
   [unlock] use lock id 1. *)
let acq tid = Event.Acquire { tid; lock = 1; sync = Event.Lock }
let rel tid = Event.Release { tid; lock = 1; sync = Event.Lock }
let rd ?(size = 4) ?(loc = "") tid addr = Event.Access { tid; kind = Read; addr; size; loc }
let wr ?(size = 4) ?(loc = "") tid addr = Event.Access { tid; kind = Write; addr; size; loc }
let fork parent child = Event.Fork { parent; child }
let join parent child = Event.Join { parent; child }
let free tid addr size = Event.Free { tid; addr; size }

(* All happens-before detector constructors under test, by name.  The
   related-work detectors are happens-before based too (RaceTrack
   refines but still decides by clocks; LiteRace samples a
   happens-before detector; MultiRace intersects with LockSet), so a
   race-free program must be silent under every one of them. *)
let hb_detectors () =
  [
    ("ft-byte", Dynamic_granularity.create ~sharing:false ~name:"ft-byte" ());
    ("ft-word", Fasttrack.create ~granularity:4 ());
    ("djit", Djit.create ());
    ("dynamic", Dynamic_granularity.create ());
    ("dynamic-ext",
     Dynamic_granularity.create ~reshare_after:4 ~write_guided_reads:true ());
    ("drd", Drd_segment.create ());
    ("inspector", Hybrid_inspector.create ());
    ("racetrack", Racetrack_adaptive.create ());
    ("literace", Literace_sampling.create ());
    ("multirace", Multirace.create ());
  ]

let check_each_hb name prog expected =
  List.iter
    (fun (dn, d) ->
      let d = run_detector d prog in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s" name dn)
        expected (race_count d))
    (hb_detectors ())

(* The engine entry point, failing the test on an [Error]. *)
module Engine = Dgrace_core.Engine

let analyze config source =
  match Engine.analyze config source with
  | Ok s -> s
  | Error e ->
    Alcotest.failf "Engine.analyze: %s" (Dgrace_resilience.Error.to_string e)

let config ?(suppression = Suppression.empty)
    ?(budget = Dgrace_resilience.Budget.unlimited) ?sample_every ?progress
    ?tracer spec =
  {
    (Engine.Config.make spec) with
    Engine.Config.suppression;
    budget;
    sample_every;
    progress;
    tracer;
  }

let program ?(policy = Scheduler.default) main =
  Engine.Source.Program { policy; main }

let event_list events = Engine.Source.Events (List.to_seq events)
let event_array events = Engine.Source.Events (Array.to_seq events)

(* a v2 file's blocks as a [Batches] source *)
let v2_batches path =
  Engine.Source.Batches
    (fun consume ->
      Dgrace_trace.Trace_format_v2.fold_batches path (fun () b -> consume b) ())

(* One scale-1 recording per (workload, seed), shared by every test
   that replays it: the comparisons are about the analysis, not the
   interleaving. *)
let recordings : (string * int, Event.t array) Hashtbl.t = Hashtbl.create 64

let recorded (w : Dgrace_workloads.Workload.t) seed =
  match Hashtbl.find_opt recordings (w.name, seed) with
  | Some a -> a
  | None ->
    let p = Dgrace_workloads.Workload.with_params ~scale:1 ~seed w in
    let buf = ref [] in
    ignore
      (Dgrace_workloads.Workload.run
         ~policy:(Scheduler.Chunked { seed; chunk = 64 })
         ~params:p
         ~sink:(fun ev -> buf := ev :: !buf)
         w);
    let a = Array.of_list (List.rev !buf) in
    Hashtbl.replace recordings (w.name, seed) a;
    a
