(* Sampling detectors: the rate-floor contract of the LiteRace
   sampler (regression for the ceil/floor inversion + QCheck law), the
   granule sampler's subset/exactness guarantees, sample:1.0
   bit-identity with its inner detector across the corpus traces, and
   the engine.batch_fallback surfacing. *)

open Dgrace_events
open Dgrace_detectors
open Tutil
module Metrics = Dgrace_obs.Metrics
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Trace_reader = Dgrace_trace.Trace_reader
module Trace_format_v2 = Dgrace_trace.Trace_format_v2

let counter_of d name =
  Option.value ~default:0 (Metrics.find_counter d.Detector.metrics name)

let analysed_fraction d =
  let a = counter_of d "sampling.analysed"
  and s = counter_of d "sampling.skipped" in
  if a + s = 0 then 1. else float_of_int a /. float_of_int (a + s)

(* ------------------------------------------------------------------ *)
(* LiteRace rate floor *)

let test_effective_floor_pinned () =
  (* regression for the ceil/floor inversion: 0.02 used to give 1/64 =
     1.56%, a whole halving below the documented floor *)
  List.iter
    (fun (floor_rate, expect) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "floor %g" floor_rate)
        expect
        (Literace_sampling.effective_floor ~floor_rate))
    [
      (0.02, 1. /. 32.);
      (0.05, 1. /. 16.);
      (0.1, 1. /. 8.);
      (0.25, 1. /. 4.);
      (0.3, 1. /. 2.);
      (0.5, 1. /. 2.);
      (0.7, 1.);
      (1.0, 1.);
    ];
  (* the contract itself, over a sweep *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "effective_floor %g >= %g" f f)
        true
        (Literace_sampling.effective_floor ~floor_rate:f >= f))
    [ 0.001; 0.01; 0.02; 0.03; 0.0625; 0.125; 0.2; 0.33; 0.49; 0.51; 0.99; 1.0 ]

let test_literace_floor_respected () =
  (* one maximally hot region: the analysed fraction converges to the
     effective floor and must never undershoot floor_rate *)
  List.iter
    (fun floor_rate ->
      let d = Literace_sampling.create ~floor_rate () in
      List.iter d.Detector.on_event
        (fork 0 1 :: List.init 100_000 (fun _ -> rd ~loc:"hot" 0 0x100));
      d.Detector.finish ();
      let frac = analysed_fraction d in
      Alcotest.(check bool)
        (Printf.sprintf "floor %g: fraction %.4f >= floor" floor_rate frac)
        true (frac >= floor_rate))
    [ 0.02; 0.05; 0.1; 0.3 ]

(* QCheck law: for ANY region access sequence the analysed fraction
   never drops below floor_rate.  Why it holds: per region, gaps
   between analysed accesses never exceed 2^floor_log2 and the first
   access is always analysed, so analysed_r >= ceil(n_r / 2^floor_log2)
   >= n_r * effective_floor >= n_r * floor_rate; summing over regions
   preserves the bound. *)
let qcheck_literace_floor_law =
  let gen =
    QCheck.pair
      (QCheck.oneofl [ 0.02; 0.05; 0.1; 0.3; 0.5 ])
      (QCheck.small_list (QCheck.pair (QCheck.int_range 0 4) (QCheck.int_range 1 60)))
  in
  QCheck.Test.make ~name:"literace: analysed fraction >= floor_rate" ~count:100
    gen (fun (floor_rate, bursts) ->
      let d = Literace_sampling.create ~floor_rate ~decay_every:8 () in
      List.iter
        (fun (region, n) ->
          let loc = "r" ^ string_of_int region in
          for i = 0 to n - 1 do
            d.Detector.on_event (rd ~loc 0 (0x1000 + (8 * i)))
          done)
        bursts;
      d.Detector.finish ();
      analysed_fraction d >= floor_rate)

(* ------------------------------------------------------------------ *)
(* Race_sampler: granule-level selection *)

let test_rate_validation () =
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g rejected" rate)
        (Invalid_argument "Race_sampler.create: rate must be in (0, 1]")
        (fun () ->
          ignore
            (Race_sampler.create ~rate
               ~inner:(Dynamic_granularity.create ())
               ())))
    [ 0.; -0.5; 1.5 ]

let test_rate_one_skips_nothing () =
  let d =
    Race_sampler.create ~rate:1.0 ~inner:(Dynamic_granularity.create ()) ()
  in
  let evs =
    fork 0 1
    :: List.init 500 (fun i -> rd 0 (0x1000 + (4096 * (i mod 37)) + (4 * i)))
  in
  let d = feed_events d evs in
  Alcotest.(check int) "nothing skipped" 0 (counter_of d "sampling.skipped");
  Alcotest.(check int) "all analysed" 500 (counter_of d "sampling.analysed")

let test_straddle_kept_when_either_side_selected () =
  let seed = Race_sampler.default_seed and rate = 0.5 in
  (* find an unselected granule whose right neighbour is selected *)
  let rec find g =
    if
      (not (Race_sampler.selected ~rate ~seed g))
      && Race_sampler.selected ~rate ~seed (g + 1)
    then g
    else find (g + 1)
  in
  let g = find 1 in
  let d () =
    Race_sampler.create ~rate ~seed ~inner:(Dynamic_granularity.create ()) ()
  in
  (* wholly inside the unselected granule: skipped *)
  let d0 = feed_events (d ()) [ wr 0 ((g * 4096) + 8) ] in
  Alcotest.(check int) "inside unselected: skipped" 1
    (counter_of d0 "sampling.skipped");
  (* straddling into the selected neighbour: analysed, so the selected
     granule sees its complete access set *)
  let d1 = feed_events (d ()) [ wr 0 (((g + 1) * 4096) - 2) ] in
  Alcotest.(check int) "straddle: analysed" 1 (counter_of d1 "sampling.analysed")

(* The granule guarantee: the sampler's reports are EXACTLY the full
   run's reports on selected granules — races on 64 distinct granules,
   sampled at 0.5, must match the hash-filtered full set. *)
let test_granule_subset_exact () =
  let evs =
    fork 0 1
    :: List.concat_map
         (fun g ->
           let a = ((g + 1) * 4096) + 16 in
           [ wr 0 a; wr 1 a ])
         (List.init 64 Fun.id)
  in
  let full = feed_events (Dynamic_granularity.create ()) evs in
  let rate = 0.5 and seed = Race_sampler.default_seed in
  let sampled =
    feed_events
      (Race_sampler.create ~rate ~seed ~inner:(Dynamic_granularity.create ()) ())
      evs
  in
  let expected =
    List.filter
      (fun (r : Report.t) ->
        Race_sampler.selected ~rate ~seed (Race_sampler.granule_of_addr r.addr))
      (races full)
  in
  Alcotest.(check (list string))
    "sampler = full restricted to selected granules"
    (List.map Report.to_string expected)
    (List.map Report.to_string (races sampled));
  let n = race_count sampled in
  Alcotest.(check bool) "a proper nonempty subset" true (n > 0 && n < 64)

(* ------------------------------------------------------------------ *)
(* sample:1.0 differential across the corpus traces *)

let corpus name =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat "corpus" name)

let corpus_names = [ "clean"; "racy"; "deadlock_adjacent"; "straddle" ]

let check_same_run name (a : Engine.summary) (b : Engine.summary) =
  Alcotest.(check (list string))
    (name ^ ": races bit-identical")
    (List.map Report.to_string a.races)
    (List.map Report.to_string b.races);
  Alcotest.(check int) (name ^ ": race_count") a.race_count b.race_count;
  Alcotest.(check int) (name ^ ": accesses") a.stats.accesses b.stats.accesses

let test_rate_one_identical_to_inner () =
  List.iter
    (fun base ->
      let events = Trace_reader.read_file (corpus (base ^ ".trace")) in
      let inner = analyze (config Spec.dynamic) (event_list events) in
      List.iter
        (fun granule ->
          let s =
            analyze (config (Spec.Sampling { rate = 1.0; granule })) (event_list events)
          in
          check_same_run
            (Printf.sprintf "%s granule=%b" base granule)
            inner s)
        [ true; false ])
    corpus_names

let test_rate_one_identical_to_inner_batched () =
  (* same law through the v2 batched pipeline: the sampler's
     process_batch at rate 1.0 forwards every row *)
  List.iter
    (fun base ->
      let path = corpus (base ^ ".trace.v2") in
      let feed consume =
        Trace_format_v2.fold_batches path (fun () b -> consume b) ()
      in
      let inner = analyze (config Spec.dynamic) (Engine.Source.Batches feed) in
      let s =
        analyze (config (Spec.Sampling { rate = 1.0; granule = true })) (Engine.Source.Batches feed)
      in
      check_same_run (base ^ ".v2") inner s)
    corpus_names

let test_batched_matches_per_event () =
  (* at a real rate, both sampler paths analyse the identical subset *)
  List.iter
    (fun base ->
      let events = Trace_reader.read_file (corpus (base ^ ".trace")) in
      let feed consume =
        Trace_format_v2.fold_batches
          (corpus (base ^ ".trace.v2"))
          (fun () b -> consume b)
          ()
      in
      List.iter
        (fun granule ->
          let spec = Spec.Sampling { rate = 0.37; granule } in
          let per_event = analyze (config spec) (event_list events) in
          let batched = analyze (config spec) (Engine.Source.Batches feed) in
          check_same_run
            (Printf.sprintf "%s rate 0.37 granule=%b" base granule)
            per_event batched)
        [ true; false ])
    corpus_names

(* ------------------------------------------------------------------ *)
(* engine.batch_fallback surfacing *)

let fallback_of (s : Engine.summary) =
  Option.value ~default:0 (Metrics.find_counter s.metrics "engine.batch_fallback")

let test_batch_fallback_counter () =
  let feed consume =
    Trace_format_v2.fold_batches
      (corpus "racy.trace.v2")
      (fun () b -> consume b)
      ()
  in
  (* no process_batch: every batch unrolls, and the counter says so *)
  let drd = analyze (config Spec.Drd) (Engine.Source.Batches feed) in
  Alcotest.(check bool) "drd fallback surfaced" true (fallback_of drd > 0);
  (* samplers ride the batched pipeline: no fallback *)
  let sampler =
    analyze (config (Spec.Sampling { rate = 0.5; granule = true })) (Engine.Source.Batches feed)
  in
  Alcotest.(check int) "sampler: no fallback" 0 (fallback_of sampler);
  let literace = analyze (config Spec.Literace) (Engine.Source.Batches feed) in
  Alcotest.(check int) "literace: no fallback" 0 (fallback_of literace);
  (* a budget and a heartbeat are batch-granular: every built-in
     detector with a [process_batch] keeps it; one without still
     unrolls, and says so *)
  let has_batch name =
    (Spec.to_detector (Result.get_ok (Spec.of_string name))).Detector.process_batch
    <> None
  in
  (* the contract below is vacuous for a detector that loses its
     batch path, so pin which ones have it *)
  List.iter
    (fun (name, want) ->
      Alcotest.(check bool) (name ^ " has process_batch") want (has_batch name))
    [
      ("dynamic", true); ("byte", true); ("word", true);
      ("sample-granule:0.5", true); ("literace", true); ("drd", false);
    ];
  let watched =
    Dgrace_resilience.Budget.make ~max_shadow_bytes:max_int
      ~max_events:1_000_000 ~deadline_s:3600. ()
  in
  List.iter
    (fun name ->
      List.iter
        (fun (what, source) ->
          let s =
            analyze
              (config ~budget:watched
                 ~progress:(1000, fun (_ : int) -> ())
                 (Result.get_ok (Spec.of_string name)))
              source
          in
          let ctx = Printf.sprintf "%s under budget+heartbeat (%s)" name what in
          if has_batch name then Alcotest.(check int) ctx 0 (fallback_of s)
          else
            Alcotest.(check bool) (ctx ^ ": fallback surfaced") true
              (fallback_of s > 0))
        [
          ("batches", Engine.Source.Batches feed);
          ("v2 file", Engine.Source.V2_file (corpus "racy.trace.v2"));
        ])
    [
      "none"; "byte"; "word"; "ft:8"; "dynamic"; "dynamic-no-init-sharing";
      "dynamic-no-init-state"; "dynamic-ext"; "djit"; "drd"; "inspector";
      "eraser"; "multirace"; "racetrack"; "literace"; "sample:0.5";
      "sample-granule:0.5";
    ];
  (* every observer is per batch: a detector with [process_batch] keeps
     it under [sample_every], a tracer, budget + heartbeat, and all of
     them at once *)
  let observed name what source (obs, budget, progress, sample_every, traced) =
    let tracer = if traced then Some (Dgrace_obs.Span.create ()) else None in
    let s =
      analyze
        (config ?budget ?progress ?sample_every ?tracer
           (Result.get_ok (Spec.of_string name)))
        source
    in
    let ctx = Printf.sprintf "%s under %s (%s)" name obs what in
    if has_batch name then Alcotest.(check int) ctx 0 (fallback_of s)
    else
      Alcotest.(check bool) (ctx ^ ": fallback surfaced") true (fallback_of s > 0)
  in
  let heartbeat = Some (1000, fun (_ : int) -> ()) in
  List.iter
    (fun name ->
      List.iter
        (fun (what, source) ->
          List.iter (observed name what source)
            [
              ("sample_every", None, None, Some 100, false);
              ("tracer", None, None, None, true);
              ("budget+heartbeat", Some watched, heartbeat, None, false);
              ("all observers", Some watched, heartbeat, Some 100, true);
            ])
        [
          ("batches", Engine.Source.Batches feed);
          ("v2 file", Engine.Source.V2_file (corpus "racy.trace.v2"));
        ])
    [ "dynamic"; "byte"; "word"; "sample-granule:0.5"; "literace"; "drd" ]

(* ------------------------------------------------------------------ *)
(* spec strings *)

let test_spec_strings () =
  let ok s spec =
    match Spec.of_string s with
    | Ok got -> Alcotest.(check string) s (Spec.name spec) (Spec.name got)
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "sample:0.25" (Spec.Sampling { rate = 0.25; granule = false });
  ok "sample-granule:0.5" (Spec.Sampling { rate = 0.5; granule = true });
  ok "sample-granule:1" (Spec.Sampling { rate = 1.0; granule = true });
  ok "sample" (Spec.Sampling { rate = 0.1; granule = false });
  ok "sample-granule" (Spec.Sampling { rate = 0.1; granule = true });
  List.iter
    (fun s ->
      match Spec.of_string s with
      | Ok _ -> Alcotest.fail (s ^ " must be rejected")
      | Error _ -> ())
    [ "sample:0"; "sample:1.5"; "sample:-0.1"; "sample:x"; "sample-granule:" ]

let suites : unit Alcotest.test list =
  [
    ( "sampler.floor",
      [
        Alcotest.test_case "effective floor pinned" `Quick test_effective_floor_pinned;
        Alcotest.test_case "floor respected on hot region" `Quick test_literace_floor_respected;
        QCheck_alcotest.to_alcotest qcheck_literace_floor_law;
      ] );
    ( "sampler.granule",
      [
        Alcotest.test_case "rate validation" `Quick test_rate_validation;
        Alcotest.test_case "rate 1.0 skips nothing" `Quick test_rate_one_skips_nothing;
        Alcotest.test_case "straddle kept" `Quick test_straddle_kept_when_either_side_selected;
        Alcotest.test_case "exact on selected granules" `Quick test_granule_subset_exact;
      ] );
    ( "sampler.differential",
      [
        Alcotest.test_case "sample:1.0 = inner (corpus)" `Quick test_rate_one_identical_to_inner;
        Alcotest.test_case "sample:1.0 = inner (batched v2)" `Quick test_rate_one_identical_to_inner_batched;
        Alcotest.test_case "batched = per-event" `Quick test_batched_matches_per_event;
      ] );
    ( "sampler.engine",
      [
        Alcotest.test_case "batch_fallback surfaced" `Quick test_batch_fallback_counter;
        Alcotest.test_case "spec strings" `Quick test_spec_strings;
      ] );
  ]
