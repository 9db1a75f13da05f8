(* The law behind the benchmark's sharded replay probe
   (doc/parallel.md): at 2 and 4 shards, [Par.analyze_pipelined]
   reports exactly the races — content and order — of a sequential
   [Engine.analyze] of the same trace.  It is checked on the corpus and
   on every bundled workload's recording, for the dynamic and byte
   detectors, on the batched shard path and on the tagged per-event
   fallback.  bench/perf's "par 2 shards" race gate relies on it.
   Sharded replay is not a product path; the planner's routing
   invariants below are all else that is checked of it. *)

open Dgrace_core
open Dgrace_events
open Dgrace_workloads
module Par = Dgrace_par.Par
module Trace_shard = Dgrace_trace.Trace_shard
module Trace_format_v2 = Dgrace_trace.Trace_format_v2

let seeds = [ 1; 2; 3 ]
let shard_counts = [ 2; 4 ]
let granule = Dgrace_detectors.Dynamic_granularity.share_granule
let report = Alcotest.testable (Fmt.of_to_string Report.to_string) ( = )

let with_v2 events f =
  let path = Filename.temp_file "dgrace-par" ".trace.v2" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (), (_ : int) =
        Trace_format_v2.to_file path (fun sink -> Array.iter sink events)
      in
      f path)

let pipelined ?(per_event = false) spec ~shards path =
  let make (_ : int) =
    let d = Spec.to_detector spec in
    if per_event then { d with process_batch = None } else d
  in
  fst (Par.analyze_pipelined ~make ~shards ~granule path)

let check_law ~ctx ?per_event spec events path =
  let seq = Tutil.(analyze (config spec) (event_array events)) in
  List.iter
    (fun shards ->
      Alcotest.(check (list report))
        (Printf.sprintf "%s shards=%d: races" ctx shards)
        seq.races
        (Par.merged_races (pipelined ?per_event spec ~shards path)))
    shard_counts

let diff_workload (w : Workload.t) spec () =
  List.iter
    (fun seed ->
      let events = Tutil.recorded w seed in
      with_v2 events
        (check_law ~ctx:(Printf.sprintf "%s seed=%d" w.name seed) spec events))
    seeds

(* the per-event fallback a detector without [process_batch] takes
   inside each shard must agree too *)
let diff_batch_workload (w : Workload.t) () =
  let events = Tutil.recorded w 1 in
  with_v2 events (fun path ->
      check_law ~ctx:(w.name ^ " batched") Spec.dynamic events path;
      check_law ~ctx:(w.name ^ " per-event") ~per_event:true Spec.dynamic
        events path)

(* resolve next to the test binary, as test_pipeline does *)
let corpus name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "corpus" (name ^ ".trace.v2"))

let diff_corpus name () =
  let path = corpus name in
  let events = Array.of_list (Trace_format_v2.read_file path) in
  List.iter
    (fun spec -> check_law ~ctx:(name ^ " " ^ Spec.name spec) spec events path)
    [ Spec.dynamic; Spec.byte ]

let test_corrupt_corpus () =
  let path = corpus "truncated" in
  let outcome f =
    match f () with
    | () -> "clean"
    | exception Dgrace_resilience.Error.E e ->
      Dgrace_resilience.Error.to_string e
  in
  let seq = outcome (fun () -> ignore (Trace_format_v2.read_file path)) in
  Alcotest.(check bool) "the sequential read fails" true (seq <> "clean");
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Printf.sprintf "shards=%d: same error as the sequential read" shards)
        seq
        (outcome (fun () -> ignore (pipelined Spec.dynamic ~shards path))))
    shard_counts

(* ------------------------------------------------------------------ *)
(* routing invariants *)

let test_one_shard_identity () =
  let events = Tutil.recorded (Option.get (Registry.find "ffmpeg")) 1 in
  with_v2 events (fun path ->
      let r = pipelined Spec.dynamic ~shards:1 path in
      Alcotest.(check int) "one shard" 1 (Array.length r.outcomes);
      Alcotest.(check int) "every event delivered once" (Array.length events)
        r.outcomes.(0).events)

let test_routing () =
  (* every access lands on exactly one shard; every other row on all *)
  let events = Tutil.recorded (Option.get (Registry.find "pbzip2")) 1 in
  let k = 4 in
  let accesses =
    Array.fold_left
      (fun n ev -> match ev with Event.Access _ -> n + 1 | _ -> n)
      0 events
  in
  let others = Array.length events - accesses in
  with_v2 events (fun path ->
      let r = pipelined Spec.dynamic ~shards:k path in
      Alcotest.(check int) "accesses once, the rest broadcast"
        (accesses + (k * others))
        (Array.fold_left (fun n (o : Par.shard_outcome) -> n + o.events) 0
           r.outcomes))

let mk_access addr = Event.Access { tid = 0; kind = Write; addr; size = 4; loc = "t" }

let test_straddle_welds () =
  (* an access straddling a granule line welds the two lines onto one
     shard, at every shard count *)
  let g = 4096 in
  let p = Trace_shard.planner ~granule:g () in
  Trace_shard.plan_batch p
    (Batch.of_events [ mk_access (g - 2); mk_access 16; mk_access (10 * g) ]);
  List.iter
    (fun shards ->
      Alcotest.(check int)
        (Printf.sprintf "shards=%d: welded lines share a shard" shards)
        (Trace_shard.plan_shard p ~shards 16)
        (Trace_shard.plan_shard p ~shards (g + 16)))
    [ 2; 3; 4; 7; 8 ]

let test_rejects () =
  Alcotest.check_raises "non-pow2 granule"
    (Invalid_argument "Trace_shard.planner: granule must be a power of two")
    (fun () -> ignore (Trace_shard.planner ~granule:100 ()));
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Par.analyze_pipelined: shards must be >= 1") (fun () ->
      ignore (Par.analyze_pipelined ~make:(fun _ -> Dgrace_detectors.Detector.null ())
                ~shards:0 ~granule "unused"))

(* ------------------------------------------------------------------ *)

let suites : unit Alcotest.test list =
  let diff_cases spec spec_name =
    List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (Printf.sprintf "%s [%s] seeds x shards" w.name spec_name)
          `Slow (diff_workload w spec))
      Registry.all
  in
  [
    ("par.differential.dynamic", diff_cases Spec.dynamic "dynamic");
    ("par.differential.byte", diff_cases Spec.byte "byte");
    ( "par.differential.batch",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s batched x per-event fallback" w.name)
            `Slow (diff_batch_workload w))
        Registry.all );
    ( "par.corpus",
      List.map
        (fun name -> Alcotest.test_case name `Quick (diff_corpus name))
        [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]
      @ [ Alcotest.test_case "truncated: sequential error" `Quick test_corrupt_corpus ] );
    ( "par.split",
      [
        Alcotest.test_case "one shard is the identity" `Quick
          test_one_shard_identity;
        Alcotest.test_case "routing: accesses once, sync broadcast" `Quick
          test_routing;
        Alcotest.test_case "straddling access welds lines" `Quick
          test_straddle_welds;
        Alcotest.test_case "invalid arguments rejected" `Quick test_rejects;
      ] );
  ]
