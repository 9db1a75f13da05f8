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

let test_invalid_shards () =
  List.iter
    (fun source ->
      check_invalid "shards = 0"
        { (Engine.Config.make Spec.dynamic) with Engine.Config.shards = 0 }
        source)
    [ Tutil.program racy_prog; Tutil.event_list [] ]

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

let test_invalid_built_sharded () =
  check_invalid "caller-built detector on 2 shards"
    {
      (Engine.Config.of_detector (Spec.to_detector Spec.dynamic)) with
      Engine.Config.shards = 2;
    }
    (Tutil.event_list [])

(* a program source on several shards is simulated once, then split *)
let test_program_sharded () =
  let one = Tutil.(analyze (config Spec.dynamic) (program racy_prog)) in
  let two = Tutil.(analyze (config ~shards:2 Spec.dynamic) (program racy_prog)) in
  Alcotest.(check (list string))
    "same races"
    (List.map Report.to_string one.races)
    (List.map Report.to_string two.races);
  Alcotest.(check int) "simulator result kept" 2 (Option.get two.sim).threads

(* [elapsed] reads the configured clock on every path: two identical
   ticker-driven runs report the same figure, sharded or not. *)
let test_elapsed_reads_clock () =
  let path = Filename.temp_file "dgrace" ".trace.v2" in
  let (), (_ : int) =
    Dgrace_trace.Trace_format_v2.to_file path (fun sink ->
        ignore (Sim.run ~sink racy_prog))
  in
  let events = Dgrace_trace.Trace_format_v2.read_file path in
  let elapsed shards source =
    let s =
      Tutil.analyze
        {
          (Engine.Config.make Spec.dynamic) with
          Engine.Config.shards;
          clock = Dgrace_obs.Clock.ticker ();
        }
        source
    in
    s.elapsed
  in
  let one = elapsed 1 (Tutil.event_list events) in
  List.iter
    (fun (name, source) ->
      let a = elapsed 4 source and b = elapsed 4 source in
      Alcotest.(check (float 0.)) (name ^ ": identical runs") a b;
      Alcotest.(check (float 0.)) (name ^ ": same as one shard") one a)
    [ ("events", Tutil.event_list events); ("v2 file", Engine.Source.V2_file path) ];
  Sys.remove path

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
        Alcotest.test_case "suppression passthrough" `Quick test_suppression_passthrough;
        Alcotest.test_case "summary printing" `Quick test_pp_summary;
      ] );
    ( "engine.analyze",
      [
        Alcotest.test_case "shards < 1 is invalid input" `Quick test_invalid_shards;
        Alcotest.test_case "progress period 0 is invalid input" `Quick
          test_invalid_progress;
        Alcotest.test_case "sample_every 0 is invalid input" `Quick
          test_invalid_sample_every;
        Alcotest.test_case "built detector cannot shard" `Quick
          test_invalid_built_sharded;
        Alcotest.test_case "program on two shards" `Quick test_program_sharded;
        Alcotest.test_case "elapsed reads the clock" `Quick test_elapsed_reads_clock;
      ] );
  ]
