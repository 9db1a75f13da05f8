(* The public API: detector specs, the engine, and trace integration. *)

open Dgrace_core
open Dgrace_sim
open Dgrace_events

let test_spec_names () =
  Alcotest.(check string) "byte" "ft-byte" (Spec.name Spec.byte);
  Alcotest.(check string) "word" "ft-word" (Spec.name Spec.word);
  Alcotest.(check string) "dynamic" "ft-dynamic" (Spec.name Spec.dynamic);
  Alcotest.(check string) "ablation"
    "ft-dynamic-no-init-state"
    (Spec.name (Spec.Dynamic { init_state = false; init_sharing = false }));
  Alcotest.(check string) "drd" "drd" (Spec.name Spec.Drd)

let test_spec_parse () =
  let ok s expected =
    match Spec.of_string s with
    | Ok spec -> Alcotest.(check string) s expected (Spec.name spec)
    | Error e -> Alcotest.fail e
  in
  ok "byte" "ft-byte";
  ok "word" "ft-word";
  ok "dynamic" "ft-dynamic";
  ok "dynamic-no-init-sharing" "ft-dynamic-no-init-sharing";
  ok "dynamic-no-init-state" "ft-dynamic-no-init-state";
  ok "dynamic-ext" "ft-dynamic-ext";
  ok "djit" "djit";
  ok "djit:4" "djit-4B";
  ok "ft:8" "ft-8B";
  ok "drd" "drd";
  ok "inspector" "inspector";
  ok "eraser" "eraser";
  ok "none" "none";
  (match Spec.of_string "bogus" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bogus accepted");
  Alcotest.(check bool) "all_names non-empty" true (Spec.all_names <> [])

let racy_prog () =
  let a = Sim.static_alloc 8 in
  let t = Sim.spawn (fun () -> Sim.write ~loc:"child" a 4) in
  Sim.write ~loc:"main" a 4;
  Sim.join t

let test_engine_run () =
  let s = Tutil.(analyze (config Spec.dynamic) (program racy_prog)) in
  Alcotest.(check string) "detector name" "ft-dynamic" s.detector;
  Alcotest.(check int) "race found" 1 s.race_count;
  Alcotest.(check int) "sim threads" 2 (Option.get s.sim).threads;
  Alcotest.(check bool) "elapsed sane" true (s.elapsed >= 0.);
  Alcotest.(check bool) "accesses counted" true (s.stats.accesses = 2);
  match s.races with
  | [ r ] ->
    Alcotest.(check bool) "locs captured" true
      (List.sort compare [ r.current.loc; r.previous.loc ] = [ "child"; "main" ])
  | _ -> Alcotest.fail "expected one race"

let test_engine_null () =
  let s = Tutil.(analyze (config Spec.No_detection) (program racy_prog)) in
  Alcotest.(check int) "no detection" 0 s.race_count;
  Alcotest.(check int) "no memory" 0 s.mem.peak_bytes

let test_engine_policy_passthrough () =
  let s1 =
    Tutil.(
      analyze (config Spec.byte)
        (program ~policy:(Scheduler.Random_each 1) racy_prog))
  in
  Alcotest.(check int) "still finds the race" 1 s1.race_count

let test_replay_matches_run () =
  let path = Filename.temp_file "dgrace" ".trace" in
  let (), n =
    Dgrace_trace.Trace_writer.to_file path (fun sink ->
        ignore (Sim.run ~sink racy_prog))
  in
  Alcotest.(check bool) "events recorded" true (n > 0);
  let events = Dgrace_trace.Trace_reader.read_file path in
  Sys.remove path;
  let live = Tutil.(analyze (config Spec.dynamic) (program racy_prog)) in
  let replayed = Tutil.(analyze (config Spec.dynamic) (event_list events)) in
  Alcotest.(check int) "same races" live.race_count replayed.race_count;
  Alcotest.(check bool) "replay has no sim result" true (replayed.sim = None);
  Alcotest.(check int) "same accesses" live.stats.accesses replayed.stats.accesses

let test_suppression_passthrough () =
  let prog () =
    let a = Sim.static_alloc 8 in
    let t = Sim.spawn (fun () -> Sim.write ~loc:"libc:internal" a 4) in
    Sim.write ~loc:"libc:internal" a 4;
    Sim.join t
  in
  let s =
    Tutil.(
      analyze
        (config ~suppression:Suppression.default_runtime Spec.byte)
        (program prog))
  in
  Alcotest.(check int) "suppressed" 0 s.race_count;
  Alcotest.(check int) "counted as suppressed" 1 s.suppressed

let test_pp_summary () =
  let s = Tutil.(analyze (config Spec.dynamic) (program racy_prog)) in
  let str = Format.asprintf "%a" Engine.pp_summary s in
  Alcotest.(check bool) "mentions detector" true
    (Astring_contains.contains str "ft-dynamic");
  Alcotest.(check bool) "mentions races" true (Astring_contains.contains str "races: 1")

(* ------------------------------------------------------------------ *)
(* Engine.analyze: configuration errors and the clock *)

let check_invalid name config source =
  match Engine.analyze config source with
  | Error (Dgrace_resilience.Error.Invalid_input _) -> ()
  | Error e ->
    Alcotest.failf "%s: wrong error %s" name
      (Dgrace_resilience.Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" name

let test_invalid_progress () =
  check_invalid "progress period 0"
    {
      (Engine.Config.make Spec.dynamic) with
      Engine.Config.progress = Some (0, fun (_ : int) -> ());
    }
    (Tutil.program racy_prog)

let test_invalid_sample_every () =
  check_invalid "sample_every 0"
    { (Engine.Config.make Spec.dynamic) with Engine.Config.sample_every = Some 0 }
    (Tutil.program racy_prog)

(* [elapsed] reads the configured clock on every path: two identical
   ticker-driven runs report the same figure, whatever the source. *)
let test_elapsed_reads_clock () =
  let path = Filename.temp_file "dgrace" ".trace.v2" in
  let (), (_ : int) =
    Dgrace_trace.Trace_format_v2.to_file path (fun sink ->
        ignore (Sim.run ~sink racy_prog))
  in
  let events = Dgrace_trace.Trace_format_v2.read_file path in
  let elapsed source =
    let s =
      Tutil.analyze
        {
          (Engine.Config.make Spec.dynamic) with
          Engine.Config.clock = Dgrace_obs.Clock.ticker ();
        }
        source
    in
    s.elapsed
  in
  let one = elapsed (Tutil.event_list events) in
  List.iter
    (fun (name, source) ->
      let a = elapsed source and b = elapsed source in
      Alcotest.(check (float 0.)) (name ^ ": identical runs") a b;
      Alcotest.(check (float 0.)) (name ^ ": same as the event list") one a)
    [ ("events", Tutil.event_list events); ("v2 file", Engine.Source.V2_file path) ];
  Sys.remove path

(* A lock id is any [int] the caller's stream carries: a replay whose
   locks are renamed to [min_int], [max_int], [0] and other negatives
   reports exactly the races of the original, small-id stream, batched
   and per event.  (Renaming is a bijection, so the happens-before
   order is the same.)  The streams are replayed from memory: neither
   trace format stores a negative lock id. *)
let test_extreme_lock_ids () =
  let extreme i =
    match i with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> -1
    | 3 -> 0
    | 4 -> min_int + 1
    | 5 -> max_int - 1
    | i -> -7919 * i
  in
  let renamed events =
    let ids = Hashtbl.create 64 in
    let rename lock =
      match Hashtbl.find_opt ids lock with
      | Some l -> l
      | None ->
        let l = extreme (Hashtbl.length ids) in
        Hashtbl.replace ids lock l;
        l
    in
    let ev = function
      | Event.Acquire { tid; lock; sync } ->
        Event.Acquire { tid; lock = rename lock; sync }
      | Event.Release { tid; lock; sync } ->
        Event.Release { tid; lock = rename lock; sync }
      | e -> e
    in
    let a = Array.map ev events in
    (a, Hashtbl.length ids)
  in
  let replay spec events =
    let summary source =
      let s = Tutil.analyze (Tutil.config spec) source in
      (List.map Report.to_string s.races, s.stats.sync_ops)
    in
    let per_event = summary (Tutil.event_array events) in
    let batched =
      summary
        (Engine.Source.Batches
           (fun consume -> List.iter consume (Detector_golden.batches events)))
    in
    Alcotest.(check (pair (list string) int)) "batched = per event" per_event batched;
    batched
  in
  let total_races = ref 0 in
  List.iter
    (fun wname ->
      let w = Option.get (Dgrace_workloads.Registry.find wname) in
      let events = Tutil.recorded w 1 in
      let events', locks = renamed events in
      if locks < 7 then Alcotest.failf "%s: only %d lock ids" wname locks;
      List.iter
        (fun spec ->
          let label = wname ^ "/" ^ Spec.name spec in
          let races, syncs = replay spec events in
          let races', syncs' = replay spec events' in
          total_races := !total_races + List.length races;
          Alcotest.(check int) (label ^ ": sync ops") syncs syncs';
          Alcotest.(check (list string)) (label ^ ": races") races races')
        [ Spec.dynamic; Spec.byte ])
    [ "canneal"; "dedup"; "pbzip2"; "ffmpeg" ];
  if !total_races = 0 then Alcotest.fail "no races: the comparison shows nothing"

let suites : unit Alcotest.test list =
  [
    ( "engine.spec",
      [
        Alcotest.test_case "names" `Quick test_spec_names;
        Alcotest.test_case "parsing" `Quick test_spec_parse;
      ] );
    ( "engine.run",
      [
        Alcotest.test_case "run summary" `Quick test_engine_run;
        Alcotest.test_case "null detector" `Quick test_engine_null;
        Alcotest.test_case "policy passthrough" `Quick test_engine_policy_passthrough;
        Alcotest.test_case "replay matches run" `Quick test_replay_matches_run;
        Alcotest.test_case "extreme lock ids replay like small ones" `Quick
          test_extreme_lock_ids;
        Alcotest.test_case "suppression passthrough" `Quick test_suppression_passthrough;
        Alcotest.test_case "summary printing" `Quick test_pp_summary;
      ] );
    ( "engine.analyze",
      [
        Alcotest.test_case "elapsed reads the clock" `Quick test_elapsed_reads_clock;
        Alcotest.test_case "progress period 0 is invalid input" `Quick
          test_invalid_progress;
        Alcotest.test_case "sample_every 0 is invalid input" `Quick
          test_invalid_sample_every;
      ] );
  ]
