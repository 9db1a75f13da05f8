(* Dgrace_obs: registry semantics, sampler cadence, matrix accounting,
   the JSON printer/parser round-trip behind --metrics-out, and the
   span-tracing flight recorder behind --trace-out (the ring,
   wall-clock recorder, Chrome export + validator). *)

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

(* [log2_floor] in constant steps answers what the shift loop it
   replaced answered. *)
let test_log2_floor () =
  let loop v =
    let b = ref 0 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      incr b
    done;
    !b
  in
  let check v =
    if Metrics.log2_floor v <> loop v then
      Alcotest.failf "log2_floor %d = %d, the loop says %d" v (Metrics.log2_floor v) (loop v)
  in
  check 1;
  for v = 2 to 1 lsl 20 do check v done;
  for i = 0 to Sys.int_size - 2 do
    let p = 1 lsl i in
    check p;
    check (p - 1 + p)  (* 2^(i+1) - 1, the top of bucket i *)
  done;
  check max_int

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
  (* the next snapshot falls due at the next multiple of 4 above 10 *)
  Sampler.tick_n s 4;
  Alcotest.(check (list (pair int int)))
    "batched boundaries"
    [ (10, 0); (14, 0) ]
    (List.map
       (fun (x : Sampler.sample) -> (x.at_event, Array.length x.values - 1))
       (Sampler.samples s))

let test_sampler_tick_n_phase () =
  (* 4096-row batches against a 5000-event period: one sample per
     batch that crosses a multiple of 5000, the k-th at or past
     k * 5000 — not one every two batches *)
  let _, s = mk_sampler 5000 in
  for _ = 1 to 10 do
    Sampler.tick_n s 4096
  done;
  let at = List.map (fun (x : Sampler.sample) -> x.at_event) (Sampler.samples s) in
  Alcotest.(check (list int))
    "one sample per crossed multiple"
    [ 8192; 12288; 16384; 20480; 28672; 32768; 36864; 40960 ]
    at;
  List.iteri
    (fun k a ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %d at or past %d" (k + 1) ((k + 1) * 5000))
        true
        (a >= (k + 1) * 5000))
    at;
  (* a batch spanning several multiples still takes one sample *)
  Sampler.tick_n s 20_000;
  Alcotest.(check int) "at most one sample per call" 9 (Sampler.length s);
  Sampler.tick_n s 4040;
  Alcotest.(check int) "next due at the multiple above the count" 10
    (Sampler.length s)

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
(* Span: the bounded ring *)

let test_span_ring () =
  let t = Span.create ~capacity:16 ~clock:(Clock.ticker ()) () in
  let b = Span.main t in
  for i = 1 to 20 do
    Span.instant b (string_of_int i)
  done;
  let events = ref [] in
  Span.iter_events t (fun e -> events := e :: !events);
  let events = List.rev !events in
  Alcotest.(check int) "ring keeps the last cap events" 16
    (List.length events);
  Alcotest.(check string) "oldest survivor" "5" (List.hd events).Span.name;
  Alcotest.(check int) "overwrites counted" 4 (Span.dropped t)

(* the exported document, read back as JSON *)
let export t =
  match Json.parse (Chrome_trace.to_string t) with
  | Ok d -> d
  | Error e -> Alcotest.failf "export does not parse: %s" e

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
  (match Chrome_trace.validate (export t) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "repaired trace must validate: %s" e);
  match Chrome_trace.phases (export t) with
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
  Alcotest.(check (list (pair int (array int))))
    "stamped samples in Span.add_counters shape"
    [ (1500, [| 7 |]); (2000, [| 7 |]); (2500, [| 7 |]) ]
    (Recorder.stamped r)

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
  Span.add_counters t ~name:"mem" ~series:[ "bytes"; "vcs" ]
    [ (1000, [| 5; 1 |]); (3000, [| 9; 2 |]) ];
  let doc = export t in
  match Chrome_trace.phases doc with
  | Error e -> Alcotest.failf "phases: %s" e
  | Ok r ->
    Alcotest.(check int) "one timeline lane" 1 r.lanes;
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
    Alcotest.(check string) "spans land on the main lane" "main" w.phase_lane;
    (* one counter event per sample, one arg per series *)
    let counters =
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) ->
        List.filter (fun e -> Json.member "ph" e = Some (Json.String "C")) evs
      | _ -> []
    in
    Alcotest.(check (list (option json)))
      "counter args"
      [
        Some (Json.Obj [ ("bytes", Json.Int 5); ("vcs", Json.Int 1) ]);
        Some (Json.Obj [ ("bytes", Json.Int 9); ("vcs", Json.Int 2) ]);
      ]
      (List.map (Json.member "args") counters);
    Alcotest.(check (list string)) "measured spans and instants only"
      [ "mark"; "work" ]
      (List.map (fun (p : Chrome_trace.phase) -> p.phase_name) r.phases)

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
  (* complete ("X") events are not part of the format dgrace writes *)
  let complete =
    Json.Obj
      [
        ( "traceEvents",
          Json.List
            [
              Json.Obj
                [
                  ("name", Json.String "x");
                  ("ph", Json.String "X");
                  ("ts", Json.Int 1);
                  ("dur", Json.Int 2);
                  ("pid", Json.Int 1);
                  ("tid", Json.Int 0);
                ];
            ] );
      ]
  in
  (match Chrome_trace.validate complete with
  | Error e ->
    Alcotest.(check string) "X is an unknown phase"
      "event 0: unknown phase \"X\"" e
  | Ok () -> Alcotest.fail "a complete event must not validate");
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
        Alcotest.test_case "log2_floor = shift loop" `Quick test_log2_floor;
      ] );
    ( "obs.sampler",
      [
        Alcotest.test_case "cadence" `Quick test_sampler_cadence;
        Alcotest.test_case "flush" `Quick test_sampler_flush;
        Alcotest.test_case "flush on boundary" `Quick test_sampler_flush_aligned;
        Alcotest.test_case "empty run" `Quick test_sampler_empty_run;
        Alcotest.test_case "invalid args" `Quick test_sampler_invalid;
        Alcotest.test_case "batched tick_n" `Quick test_sampler_tick_n;
        Alcotest.test_case "tick_n keeps the period's phase" `Quick
          test_sampler_tick_n_phase;
      ] );
    ("obs.clock", [ Alcotest.test_case "ticker" `Quick test_ticker ]);
    ( "obs.span",
      [
        Alcotest.test_case "ring wrap + dropped" `Quick test_span_ring;
        Alcotest.test_case "export repairs unbalanced spans" `Quick
          test_span_export_repairs;
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
