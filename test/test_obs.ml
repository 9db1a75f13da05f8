(* Dgrace_obs: registry semantics, sampler cadence, matrix accounting,
   the JSON printer/parser round-trip behind --metrics-out, and the
   span-tracing flight recorder behind --trace-out (rings, sampled
   timers, wall-clock recorder, Chrome export + validator). *)

open Dgrace_obs

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) Json.equal

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter r "x" in
  Alcotest.(check int) "fresh" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "incr+add" 7 (Metrics.value c);
  (* find-or-create: same name is the same instrument *)
  Metrics.incr (Metrics.counter r "x");
  Alcotest.(check int) "idempotent registration" 8 (Metrics.value c);
  Alcotest.(check (option int)) "find_counter" (Some 8)
    (Metrics.find_counter r "x");
  Alcotest.(check (option int)) "find_counter missing" None
    (Metrics.find_counter r "y");
  Alcotest.check_raises "negative add"
    (Invalid_argument "Metrics.add: negative counter increment") (fun () ->
      Metrics.add c (-1))

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "live" in
  Metrics.set g 42;
  Metrics.set g 7;
  Alcotest.(check int) "moves both ways" 7 (Metrics.gauge_value g);
  Alcotest.(check (list (pair string int))) "listing" [ ("live", 7) ]
    (Metrics.gauges r)

let test_counters_sorted () =
  let r = Metrics.create () in
  List.iter
    (fun n -> Metrics.incr (Metrics.counter r n))
    [ "b"; "a"; "c"; "a" ];
  Alcotest.(check (list (pair string int)))
    "sorted by name"
    [ ("a", 2); ("b", 1); ("c", 1) ]
    (Metrics.counters r)

let test_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "sizes" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 2; 3; 4; 7; 8; 1024 ];
  Alcotest.(check int) "count" 9 (Metrics.histogram_count h);
  Alcotest.(check int) "sum" 1050 (Metrics.histogram_sum h);
  Alcotest.(check int) "max" 1024 (Metrics.histogram_max h);
  (* bucket 0 holds <=1; bucket i holds 2^i .. 2^(i+1)-1 *)
  Alcotest.(check (list (triple int int int)))
    "buckets"
    [ (0, 1, 3); (2, 3, 2); (4, 7, 2); (8, 15, 1); (1024, 2047, 1) ]
    (Metrics.histogram_buckets h)

(* ------------------------------------------------------------------ *)
(* Sampler cadence *)

let mk_sampler every =
  let clock = ref 0 in
  (clock, Sampler.create ~every ~sources:[ ("clock", fun () -> !clock) ])

let test_sampler_cadence () =
  let clock, s = mk_sampler 4 in
  for i = 1 to 10 do
    clock := i * 100;
    Sampler.tick s
  done;
  Alcotest.(check int) "two periods elapsed" 2 (Sampler.length s);
  Alcotest.(check (list (pair int int)))
    "samples at every=4 boundaries"
    [ (4, 400); (8, 800) ]
    (List.map
       (fun (x : Sampler.sample) -> (x.at_event, x.values.(0)))
       (Sampler.samples s))

let test_sampler_flush () =
  let clock, s = mk_sampler 4 in
  for i = 1 to 10 do
    clock := i * 100;
    Sampler.tick s
  done;
  Sampler.flush s;
  Alcotest.(check int) "flush adds the tail sample" 3 (Sampler.length s);
  Sampler.flush s;
  Alcotest.(check int) "flush is idempotent" 3 (Sampler.length s);
  let last = List.nth (Sampler.samples s) 2 in
  Alcotest.(check int) "tail at current event count" 10 last.at_event

let test_sampler_flush_aligned () =
  (* when the run length is a multiple of [every], flush must not
     duplicate the sample already taken there *)
  let _, s = mk_sampler 5 in
  for _ = 1 to 10 do
    Sampler.tick s
  done;
  Sampler.flush s;
  Alcotest.(check int) "no duplicate at the boundary" 2 (Sampler.length s)

let test_sampler_empty_run () =
  let _, s = mk_sampler 4 in
  Sampler.flush s;
  Alcotest.(check int) "no sample for an event-free run" 0 (Sampler.length s)

let test_sampler_invalid () =
  Alcotest.check_raises "every=0"
    (Invalid_argument "Sampler.create: non-positive period") (fun () ->
      ignore (Sampler.create ~every:0 ~sources:[ ("x", fun () -> 0) ]));
  Alcotest.check_raises "no sources"
    (Invalid_argument "Sampler.create: no sources") (fun () ->
      ignore (Sampler.create ~every:1 ~sources:[]))

let test_sampler_tick_n () =
  let _, s = mk_sampler 4 in
  (* a batch crossing the boundary takes exactly one snapshot *)
  Sampler.tick_n s 10;
  Alcotest.(check int) "one snapshot for a big batch" 1 (Sampler.length s);
  (* the countdown resets to a full period after the batch *)
  Sampler.tick_n s 4;
  Alcotest.(check (list (pair int int)))
    "batched boundaries"
    [ (10, 0); (14, 0) ]
    (List.map
       (fun (x : Sampler.sample) -> (x.at_event, Array.length x.values - 1))
       (Sampler.samples s))

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_ticker () =
  let c = Clock.ticker () in
  Alcotest.(check int) "default start" 0 (c ());
  Alcotest.(check int) "default step" 1000 (c ());
  let c = Clock.ticker ~start:5 ~step:2 () in
  let a = c () in
  let b = c () in
  Alcotest.(check (list int)) "custom" [ 5; 7; 9 ] [ a; b; c () ]

(* ------------------------------------------------------------------ *)
(* Span lanes: bounded rings, sampled timers, dispatch wrapper *)

let lane_named t name =
  match
    List.find_opt (fun (lv : Span.lane_view) -> lv.lane = name)
      (Span.lane_views t)
  with
  | Some lv -> lv
  | None -> Alcotest.failf "no lane %S" name

let timer_named (lv : Span.lane_view) name =
  match
    List.find_opt (fun (tv : Span.timer_view) -> tv.timer_name = name)
      lv.timers
  with
  | Some tv -> tv
  | None -> Alcotest.failf "no timer %S on lane %S" name lv.lane

let test_span_ring () =
  let t = Span.create ~capacity_per_lane:16 ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  for i = 1 to 20 do
    Span.instant b (string_of_int i)
  done;
  let lv = lane_named t "main" in
  Alcotest.(check int) "ring keeps the last cap events" 16
    (List.length lv.events);
  Alcotest.(check string) "oldest survivor" "5"
    (List.hd lv.events).Span.name;
  Alcotest.(check int) "overwrites counted" 4 (Span.dropped t);
  (* a second lane is independent and registration is idempotent *)
  let b2 = Span.lane t "shard0" in
  Span.instant b2 "x";
  Alcotest.(check bool) "same buf for the same name" true
    (b2 == Span.lane t "shard0");
  Alcotest.(check int) "two lanes" 2 (List.length (Span.lane_views t))

let test_span_export_repairs () =
  (* spans left open (budget stop) and orphan ends (begin lost to the
     ring) must still export a validating trace *)
  let t = Span.create ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  Span.end_span b "orphan";
  Span.begin_span b "outer";
  Span.begin_span b "inner";
  Span.instant b "mark";
  (* neither span closed *)
  (match Chrome_trace.validate (Chrome_trace.to_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "repaired trace must validate: %s" e);
  match Chrome_trace.phases (Chrome_trace.to_json t) with
  | Error e -> Alcotest.failf "phases: %s" e
  | Ok r ->
    (* both spans were closed by the exporter, the orphan end dropped *)
    let names =
      List.map (fun (p : Chrome_trace.phase) -> p.phase_name) r.phases
    in
    Alcotest.(check (list string))
      "closed spans + instant, no orphan"
      [ "inner"; "mark"; "outer" ]
      (List.sort compare names)

let test_timer_sampling () =
  (* default-armed lane: one op in (mask+1) is clocked and the
     estimate scales the sampled mean to the full op count *)
  let t = Span.create ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  let tm = Span.timer b ~name:"phase.x" ~mask:1 in
  for _ = 1 to 8 do
    Span.timer_start tm;
    Span.timer_stop tm
  done;
  let tv = timer_named (lane_named t "main") "phase.x" in
  Alcotest.(check int) "all ops counted" 8 tv.Span.ops;
  Alcotest.(check int) "every 2nd op clocked" 4 tv.Span.sampled;
  (* each sampled op spans one 1000 ns tick: mean 1000 x 8 ops *)
  Alcotest.(check int) "estimate scaled to ops" 8000 tv.Span.estimate_ns;
  Alcotest.check_raises "mask must be 2^k - 1"
    (Invalid_argument "Span.timer: mask must be 2^k - 1") (fun () ->
      ignore (Span.timer b ~name:"bad" ~mask:2))

let test_wrap_dispatch () =
  let t = Span.create ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  let inner = Span.timer b ~name:"inner" ~mask:0 in
  let hits = ref 0 in
  let samples = ref 0 in
  let body () =
    incr hits;
    Span.timer_start inner;
    Span.timer_stop inner
  in
  let dispatch =
    Span.wrap_dispatch b ~name:"dispatch" ~stride:4
      ~on_sample:(fun () -> incr samples)
      (fun () -> body ())
  in
  for _ = 1 to 8 do
    dispatch ()
  done;
  Alcotest.(check int) "every event dispatched" 8 !hits;
  Alcotest.(check int) "on_sample once per armed event" 2 !samples;
  (* taking over the lane disarms it for direct (unsampled) calls *)
  body ();
  let lv = lane_named t "main" in
  let d = timer_named lv "dispatch" in
  Alcotest.(check int) "dispatch ops scaled by stride" 8 d.Span.ops;
  Alcotest.(check int) "one sample per armed event" 2 d.Span.sampled;
  (* each armed dispatch reads the clock twice around a body that
     reads it twice more: 3000 ns per sample, scaled to 8 events *)
  Alcotest.(check int) "dispatch estimate" 24000 d.Span.estimate_ns;
  let i = timer_named lv "inner" in
  Alcotest.(check int) "inner sees only armed events, scaled back" 8
    i.Span.ops;
  Alcotest.(check int) "inner sampled under the wrapper only" 2 i.Span.sampled;
  Alcotest.(check int) "inner estimate" 8000 i.Span.estimate_ns;
  Alcotest.check_raises "stride must be a power of two"
    (Invalid_argument "Span.wrap_dispatch: stride must be a power of two")
    (fun () ->
      ignore
        (Span.wrap_dispatch b ~name:"bad" ~stride:3
           ~on_sample:(fun () -> ())
           (fun () -> ())
          : unit -> unit))

let test_disabled_timer () =
  let tm = Span.disabled () in
  Span.timer_start tm;
  Span.timer_stop tm;
  Alcotest.(check int) "timer_time passes the result through" 7
    (Span.timer_time tm (fun () -> 7));
  (* a disabled timer is not registered anywhere: a fresh tracer's
     lanes are unaffected *)
  let t = Span.create ~clock:(Clock.ticker ()) () in
  ignore (Span.main t);
  Alcotest.(check int) "no timers on the lane" 0
    (List.length (lane_named t "main").timers)

(* ------------------------------------------------------------------ *)
(* Recorder: wall-clock stamps over the sampler *)

let test_recorder_stamps () =
  let clock = Clock.ticker ~start:1000 ~step:500 () in
  let r = Recorder.create ~clock ~every:2 ~sources:[ ("v", fun () -> 7) ] () in
  Alcotest.(check int) "epoch is the creation reading" 1000
    (Recorder.epoch_ns r);
  for _ = 1 to 5 do
    Recorder.tick r
  done;
  Alcotest.(check (list int))
    "one stamp per sample, read when taken"
    [ 1500; 2000 ]
    (Recorder.times_ns r);
  Recorder.flush r;
  Alcotest.(check (list int)) "flush stamps the tail" [ 1500; 2000; 2500 ]
    (Recorder.times_ns r);
  Alcotest.(check
              (list (pair string (list (pair int int)))))
    "counter series in Span.add_counter_series shape"
    [ ("v", [ (1500, 7); (2000, 7); (2500, 7) ]) ]
    (Recorder.counter_series r)

let test_recorder_tick_n () =
  let clock = Clock.ticker ~start:0 ~step:100 () in
  let r = Recorder.create ~clock ~every:8 ~sources:[ ("v", fun () -> 1) ] () in
  Recorder.tick_n r 20;
  (* one batch, one snapshot, one stamp *)
  Alcotest.(check (list int)) "batched stamp" [ 100 ] (Recorder.times_ns r)

(* ------------------------------------------------------------------ *)
(* Chrome export: golden aggregation over a deterministic clock *)

let test_chrome_export () =
  let t = Span.create ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  Span.begin_span b "work";
  Span.instant b "mark";
  Span.end_span b "work";
  let tm = Span.timer b ~name:"phase.x" ~mask:0 in
  Span.timer_start tm;
  Span.timer_stop tm;
  Span.timer_start tm;
  Span.timer_stop tm;
  Span.add_counter_series t ~name:"bytes" [ (1000, 5); (3000, 9) ];
  let doc = Chrome_trace.to_json t in
  (* the export must itself survive a JSON print/parse round-trip *)
  let doc =
    match Json.parse (Json.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.failf "export round-trip: %s" e
  in
  match Chrome_trace.phases doc with
  | Error e -> Alcotest.failf "phases: %s" e
  | Ok r ->
    Alcotest.(check int) "timeline lanes (main + its phases)" 2 r.lanes;
    let phase name =
      match
        List.find_opt
          (fun (p : Chrome_trace.phase) -> p.phase_name = name)
          r.phases
      with
      | Some p -> p
      | None -> Alcotest.failf "no phase %S" name
    in
    let w = phase "work" in
    Alcotest.(check (pair int int)) "work: count, measured us" (1, 2)
      (w.count, w.total_us);
    Alcotest.(check bool) "work is measured, not estimated" false
      w.estimated;
    let x = phase "phase.x" in
    Alcotest.(check string) "timers land on the synthetic lane"
      "main phases" x.phase_lane;
    Alcotest.(check bool) "timer totals are estimates" true x.estimated;
    (* two ops x one 1000 ns tick each *)
    Alcotest.(check int) "timer estimate in us" 2 x.total_us

let test_chrome_rejects () =
  let bad =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "e");
                  ("ph", Json.String "E");
                  ("ts", Json.Int 1);
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                ];
            ] );
      ]
  in
  (match Chrome_trace.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unbalanced end must not validate");
  match Chrome_trace.validate (Json.Obj []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing traceEvents must not validate"

(* ------------------------------------------------------------------ *)
(* State matrix *)

let test_matrix () =
  let m = State_matrix.create ~states:[| "a"; "b"; "c" |] in
  State_matrix.record m ~from_:0 ~to_:1;
  State_matrix.record m ~from_:0 ~to_:1;
  State_matrix.record m ~from_:1 ~to_:2;
  Alcotest.(check int) "get" 2 (State_matrix.get m ~from_:0 ~to_:1);
  Alcotest.(check int) "total" 3 (State_matrix.total m);
  Alcotest.(check int) "row" 2 (State_matrix.row_total m 0);
  Alcotest.(check int) "col" 1 (State_matrix.col_total m 2);
  let edges = ref [] in
  State_matrix.iter
    (fun ~from_ ~to_ ~count -> edges := (from_, to_, count) :: !edges)
    m;
  Alcotest.(check (list (triple int int int)))
    "non-zero edges, row-major"
    [ (0, 1, 2); (1, 2, 1) ]
    (List.rev !edges)

(* ------------------------------------------------------------------ *)
(* JSON round-trip and export envelope *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("n", Json.Null);
        ("b", Json.Bool true);
        ("i", Json.Int (-42));
        ("f", Json.Float 2.5);
        ("s", Json.String "a\"b\\c\nd\tunicode \xc3\xa9");
        ("l", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.check json "pretty round-trip" v v'
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Json.parse (Json.to_string ~minify:true v) with
  | Ok v' -> Alcotest.check json "minified round-trip" v v'
  | Error e -> Alcotest.failf "minified parse failed: %s" e

let test_json_numbers () =
  (match Json.parse "17" with
  | Ok (Json.Int 17) -> ()
  | _ -> Alcotest.fail "bare int");
  (match Json.parse "1.5e2" with
  | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "exponent" 150. f
  | _ -> Alcotest.fail "float with exponent");
  match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input must not parse"

let test_envelope () =
  let doc = Export.envelope ~kind:"run" [ ("x", Json.Int 1) ] in
  (match Export.validate doc with
  | Ok (v, kind) ->
    Alcotest.(check int) "version" Export.schema_version v;
    Alcotest.(check string) "kind" "run" kind
  | Error e -> Alcotest.failf "validate: %s" e);
  (match Json.member Export.version_key doc with
  | Some (Json.Int _) -> ()
  | _ -> Alcotest.fail "version key present");
  match Export.validate (Json.Obj [ ("x", Json.Int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare object must not validate"

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "c");
  Metrics.set (Metrics.gauge r "g") 3;
  Metrics.observe (Metrics.histogram r "h") 5;
  let j = Metrics.to_json r in
  Alcotest.(check (option json)) "counters"
    (Some (Json.Obj [ ("c", Json.Int 1) ]))
    (Json.member "counters" j);
  Alcotest.(check (option json)) "gauges"
    (Some (Json.Obj [ ("g", Json.Int 3) ]))
    (Json.member "gauges" j);
  (* the whole registry export must survive a round-trip *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.check json "registry round-trip" j j'
  | Error e -> Alcotest.failf "registry parse: %s" e

let suites : unit Alcotest.test list =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "counters sorted" `Quick test_counters_sorted;
        Alcotest.test_case "histogram buckets" `Quick test_histogram;
      ] );
    ( "obs.sampler",
      [
        Alcotest.test_case "cadence" `Quick test_sampler_cadence;
        Alcotest.test_case "flush" `Quick test_sampler_flush;
        Alcotest.test_case "flush on boundary" `Quick test_sampler_flush_aligned;
        Alcotest.test_case "empty run" `Quick test_sampler_empty_run;
        Alcotest.test_case "invalid args" `Quick test_sampler_invalid;
        Alcotest.test_case "batched tick_n" `Quick test_sampler_tick_n;
      ] );
    ("obs.clock", [ Alcotest.test_case "ticker" `Quick test_ticker ]);
    ( "obs.span",
      [
        Alcotest.test_case "ring wrap + dropped" `Quick test_span_ring;
        Alcotest.test_case "export repairs unbalanced spans" `Quick
          test_span_export_repairs;
        Alcotest.test_case "timer sampling + scaling" `Quick
          test_timer_sampling;
        Alcotest.test_case "wrap_dispatch arming" `Quick test_wrap_dispatch;
        Alcotest.test_case "disabled timer" `Quick test_disabled_timer;
      ] );
    ( "obs.recorder",
      [
        Alcotest.test_case "wall-clock stamps" `Quick test_recorder_stamps;
        Alcotest.test_case "batched tick_n" `Quick test_recorder_tick_n;
      ] );
    ( "obs.chrome",
      [
        Alcotest.test_case "export aggregates + validates" `Quick
          test_chrome_export;
        Alcotest.test_case "validator rejects bad traces" `Quick
          test_chrome_rejects;
      ] );
    ( "obs.matrix",
      [ Alcotest.test_case "record/totals/iter" `Quick test_matrix ] );
    ( "obs.json",
      [
        Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "numbers" `Quick test_json_numbers;
        Alcotest.test_case "envelope" `Quick test_envelope;
        Alcotest.test_case "registry export" `Quick test_metrics_json;
      ] );
  ]
