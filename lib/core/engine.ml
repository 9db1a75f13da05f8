open Dgrace_events
open Dgrace_detectors
open Dgrace_shadow
open Dgrace_sim
module Json = Dgrace_obs.Json
module Metrics = Dgrace_obs.Metrics
module Sampler = Dgrace_obs.Sampler
module Recorder = Dgrace_obs.Recorder
module Span = Dgrace_obs.Span
module State_matrix = Dgrace_obs.State_matrix
module Export = Dgrace_obs.Export
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Trace_format_v2 = Dgrace_trace.Trace_format_v2
module Clock = Dgrace_obs.Clock

module Source = struct
  type t =
    | Program of { policy : Scheduler.policy; main : unit -> unit }
    | Events of Event.t Seq.t
    | Batches of ((Batch.t -> unit) -> unit)
    | V2_file of string
end

module Config = struct
  type detector = Spec of Spec.t | Detector of Detector.t

  type t = {
    detector : detector;
    suppression : Suppression.t;
    budget : Budget.t;
    clock : Clock.source;
    sample_every : int option;
    progress : (int * (int -> unit)) option;
    tracer : Span.t option;
  }

  let make spec =
    {
      detector = Spec spec;
      suppression = Suppression.empty;
      budget = Budget.unlimited;
      clock = Clock.ns;
      sample_every = None;
      progress = None;
      tracer = None;
    }

  let of_detector d = { (make Spec.No_detection) with detector = Detector d }
end

type summary = {
  detector : string;
  races : Report.t list;
  race_count : int;
  suppressed : int;
  stats : Run_stats.t;
  mem : mem_summary;
  elapsed : float;
  sim : Sim.result option;
  partial : Budget.stop option;
  degraded : bool;
  metrics : Metrics.t;
  transitions : State_matrix.t option;
  timeseries : Recorder.t option;
}

and mem_summary = {
  peak_bytes : int;
  peak_hash_bytes : int;
  peak_vc_bytes : int;
  peak_bitmap_bytes : int;
  peak_interned_bytes : int;
  peak_vcs : int;
  total_vcs : int;
  avg_sharing : float;
}

let mem_of_account a =
  {
    peak_bytes = Accounting.peak_bytes a;
    peak_hash_bytes = Accounting.peak_hash_bytes a;
    peak_vc_bytes = Accounting.peak_vc_bytes a;
    peak_bitmap_bytes = Accounting.peak_bitmap_bytes a;
    peak_interned_bytes = Accounting.peak_interned_bytes a;
    peak_vcs = Accounting.peak_vcs a;
    total_vcs = Accounting.total_vcs_created a;
    avg_sharing = Accounting.avg_sharing a;
  }

let summarize (d : Detector.t) ~elapsed ~sim ~partial ~degraded ~timeseries =
  {
    detector = d.name;
    races = Detector.races d;
    race_count = Detector.race_count d;
    suppressed = Report.Collector.suppressed d.collector;
    stats = d.stats;
    mem = mem_of_account d.account;
    elapsed;
    sim;
    partial;
    degraded;
    metrics = d.metrics;
    transitions = d.transitions;
    timeseries;
  }

(* The memory-over-time sources of the paper's Table 2/3 quantities,
   read live from the detector's accounting on each sample. *)
let sampler_sources (d : Detector.t) =
  [
    ("hash_bytes", fun () -> Accounting.hash_bytes d.account);
    ("vc_bytes", fun () -> Accounting.vc_bytes d.account);
    ("bitmap_bytes", fun () -> Accounting.bitmap_bytes d.account);
    ("total_bytes", fun () -> Accounting.current_bytes d.account);
    ("live_vcs", fun () -> Accounting.live_vcs d.account);
    ("accesses", fun () -> d.stats.Run_stats.accesses);
    ("races", fun () -> Report.Collector.count d.collector);
  ]

(* Compose the detector sink with the budget guard, recorder ticks
   and the tracing timer; when none are requested the sink is the
   detector's own handler and the event loop pays nothing.

   A traced sink samples one event in [dispatch_stride]: only that
   event is dispatched with the lane armed (timing the dispatch and
   letting the detector's gated phase timers run), so the other
   [dispatch_stride - 1] events pay one counter and one branch — the
   mechanism behind the bench's tracing-overhead budget.  [exact]
   states whether the recorder's samples are observable output
   ([sample_every] was given): an exact recorder is ticked once per
   event; a recorder that exists only to feed counter tracks is
   batch-ticked on sampled events. *)
let dispatch_stride = 64

let make_sink (d : Detector.t) ~guard ~recorder ~exact ~lane =
  match (guard, recorder, lane) with
  | None, None, None -> d.on_event
  | None, _, Some buf when not exact ->
    (* the [--trace-out]-only shape (no budget, no heartbeat, no
       [--metrics-out]): the whole traced loop is the dispatch
       wrapper, with the counter-track recorder batch-ticked on
       sampled events *)
    let on_sample =
      match recorder with
      | Some r -> fun () -> Recorder.tick_n r dispatch_stride
      | None -> fun () -> ()
    in
    Span.wrap_dispatch buf ~name:"detector.on_event" ~stride:dispatch_stride
      ~on_sample d.on_event
  | _ -> (
    let on_event =
      match lane with
      | None -> d.on_event
      | Some buf ->
        (* per-event attribution cheap enough for the hot loop: the
           sampled dispatch wrapper, not a span per event *)
        Span.wrap_dispatch buf ~name:"detector.on_event"
          ~stride:dispatch_stride
          ~on_sample:(fun () -> ())
          d.on_event
    in
    let deliver =
      match recorder with
      | None -> on_event
      | Some r ->
        fun ev ->
          on_event ev;
          Recorder.tick r
    in
    match guard with
    | None -> deliver
    | Some g -> Budget_guard.event g d deliver)

(* A batch that had to unroll to the per-event loop (no
   [process_batch], or a recorder or tracing lane needing per-event
   samples) is surfaced as the [engine.batch_fallback] counter in the
   detector's registry, once per unrolled batch.  Silent unrolling
   made sampling-detector slowdowns invisible. *)
let note_batch_fallback (d : Detector.t) =
  Metrics.incr (Metrics.counter d.Detector.metrics "engine.batch_fallback")

(* The flight recorder exists when the caller wants a sampled
   time-series ([sample_every], i.e. [--metrics-out]) or a trace
   (counter tracks need wall-clock-stamped samples); it only reaches
   the summary in the first case, keeping [timeseries]'s presence
   keyed to [sample_every] as it always was. *)
let make_recorder (d : Detector.t) ~sample_every ~tracer =
  match (sample_every, tracer) with
  | Some every, _ ->
    Some (Recorder.create ~every ~sources:(sampler_sources d) ())
  | None, Some _ ->
    Some (Recorder.create ~every:1024 ~sources:(sampler_sources d) ())
  | None, None -> None

let feed_counter_tracks ~tracer ~prefix recorder =
  match (tracer, recorder) with
  | Some t, Some r ->
    List.iter
      (fun (nm, series) -> Span.add_counter_series t ~name:(prefix ^ "." ^ nm) series)
      (Recorder.counter_series r)
  | (Some _ | None), _ -> ()

(* ------------------------------------------------------------------ *)
(* one detector, on the calling domain *)

let run (c : Config.t) ~now_s ~t0 (source : Source.t) =
  let lane = Option.map Span.main c.tracer in
  let d =
    match c.detector with
    | Config.Detector d -> d
    | Config.Spec spec ->
      Spec.to_detector ~suppression:c.suppression ?tracer:lane spec
  in
  let recorder = make_recorder d ~sample_every:c.sample_every ~tracer:c.tracer in
  (* budgets and the heartbeat are batch-granular (Budget_guard), so
     only a recorder — [sample_every] or [tracer] — unrolls batches *)
  let guard =
    if Budget.is_unlimited c.budget && c.progress = None then None
    else
      let note =
        match lane with
        | Some buf -> fun () -> Span.instant buf "budget.degrade"
        | None -> fun () -> ()
      in
      Some (Budget_guard.create ~note ?progress:c.progress ~now_s ~t0 c.budget)
  in
  let sink () =
    make_sink d ~guard ~recorder ~exact:(c.sample_every <> None) ~lane
  in
  let consume () =
    match (d.Detector.process_batch, recorder, guard) with
    | Some pb, None, None -> pb
    | Some pb, None, Some g -> Budget_guard.batch g d pb
    | Some _, Some _, _ | None, _, _ ->
      let sink = sink () in
      fun b ->
        note_batch_fallback d;
        Batch.iter_events sink b
  in
  let phase =
    match source with Source.Program _ -> "engine.run" | _ -> "engine.replay"
  in
  (match lane with Some b -> Span.begin_span b phase | None -> ());
  let sim = ref None in
  let partial =
    match
      match source with
      | Source.Program { policy; main } ->
        sim := Some (Sim.run ~policy ~sink:(sink ()) main)
      | Source.Events events -> Seq.iter (sink ()) events
      | Source.Batches feed -> feed (consume ())
      | Source.V2_file path ->
        (* decode each block here, then detect it: a traced replay
           spans the decodes as [replay.decode], as a v1 replay spans
           its file read, so [racedet timings] shows the split *)
        let wrap_decode =
          Option.map (fun b -> Span.span b "replay.decode") lane
        in
        let consume = consume () in
        Trace_format_v2.fold_batches ?wrap_decode path
          (fun () b -> consume b)
          ()
    with
    | () -> None
    | exception Budget_guard.Stop stop ->
      (match lane with Some b -> Span.instant b "budget.stop" | None -> ());
      Some stop
  in
  (match lane with Some b -> Span.end_span b phase | None -> ());
  (match lane with
   | Some b -> Span.span b "engine.finish" d.finish
   | None -> d.finish ());
  Option.iter Recorder.flush recorder;
  feed_counter_tracks ~tracer:c.tracer ~prefix:d.name recorder;
  let timeseries = match c.sample_every with Some _ -> recorder | None -> None in
  let degraded =
    match guard with Some g -> Budget_guard.degraded g | None -> false
  in
  summarize d ~elapsed:0. ~sim:!sim ~partial ~degraded ~timeseries

(* ------------------------------------------------------------------ *)
(* the entry point *)

let invalid what reason = Error (Error.Invalid_input { what; reason })

let analyze (c : Config.t) (source : Source.t) =
  match (c.progress, c.sample_every) with
  | Some (every, _), _ when every < 1 ->
    invalid "Engine.analyze"
      (Printf.sprintf "progress period must be positive, got %d" every)
  | _, Some every when every < 1 ->
    invalid "Engine.analyze"
      (Printf.sprintf "sample_every must be positive, got %d" every)
  | _ -> (
    (* [elapsed] and the budget deadline both read [c.clock], the real
       wall clock unless a test substitutes a ticker *)
    let now_s () = float_of_int (c.clock ()) *. 1e-9 in
    let t0 = now_s () in
    match run c ~now_s ~t0 source with
    | s -> Ok { s with elapsed = now_s () -. t0 }
    | exception Error.E e -> Error e
    | exception Sim.Deadlock { Sim.blocked; held } ->
      Error (Error.Deadlock { blocked; held }))

let summarize_detector d ~elapsed ~partial ~degraded =
  summarize d ~elapsed ~sim:None ~partial ~degraded ~timeseries:None

let exit_code_of_summary s =
  if s.partial <> None || s.degraded then Error.exit_partial
  else if s.race_count > 0 then Error.exit_races
  else Error.exit_ok

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>detector: %s@,elapsed: %.3fs@,%a@," s.detector
    s.elapsed Run_stats.pp s.stats;
  Format.fprintf ppf
    "memory: peak=%dB (hash=%d vc=%d bitmap=%d) peak-vcs=%d avg-sharing=%.1f@,"
    s.mem.peak_bytes s.mem.peak_hash_bytes s.mem.peak_vc_bytes
    s.mem.peak_bitmap_bytes s.mem.peak_vcs s.mem.avg_sharing;
  (match s.partial with
   | Some stop ->
     Format.fprintf ppf "status: partial (%s)@," (Budget.stop_to_string stop)
   | None -> ());
  if s.degraded then
    Format.fprintf ppf "status: degraded (shadow state shed under budget)@,";
  Format.fprintf ppf "races: %d (%d suppressed)" s.race_count s.suppressed;
  List.iter (fun r -> Format.fprintf ppf "@,  %a" Report.pp r) s.races;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* structured export (doc/observability.md documents the schema) *)

let stats_to_json (st : Run_stats.t) =
  Json.Obj
    [
      ("accesses", Json.Int st.accesses);
      ("reads", Json.Int st.reads);
      ("writes", Json.Int st.writes);
      ("same_epoch", Json.Int st.same_epoch);
      ("sync_ops", Json.Int st.sync_ops);
      ("allocs", Json.Int st.allocs);
      ("frees", Json.Int st.frees);
    ]

let mem_to_json m =
  Json.Obj
    [
      ("peak_bytes", Json.Int m.peak_bytes);
      ("peak_hash_bytes", Json.Int m.peak_hash_bytes);
      ("peak_vc_bytes", Json.Int m.peak_vc_bytes);
      ("peak_bitmap_bytes", Json.Int m.peak_bitmap_bytes);
      ("peak_interned_bytes", Json.Int m.peak_interned_bytes);
      ("peak_vcs", Json.Int m.peak_vcs);
      ("total_vcs", Json.Int m.total_vcs);
      ("avg_sharing", Json.Float m.avg_sharing);
    ]

(* [with_elapsed:false] is for the top-level "run" document, where v3
   moved the wall clock onto the envelope itself; nested run objects
   (compare's [runs] list) keep it in the body. *)
let summary_body ?workload ?(with_elapsed = true) s =
  List.concat
    [
      [ ("detector", Json.String s.detector) ];
      (match workload with Some w -> [ ("workload", w) ] | None -> []);
      (if with_elapsed then [ ("elapsed_s", Json.Float s.elapsed) ] else []);
      [
        ("races", Json.Int s.race_count);
        ("suppressed", Json.Int s.suppressed);
        ("partial", Json.Bool (s.partial <> None));
        ("degraded", Json.Bool s.degraded);
      ];
      (match s.partial with
       | Some stop -> [ ("stop_reason", Budget.stop_to_json stop) ]
       | None -> []);
      [
        ("stats", stats_to_json s.stats);
        ("memory", mem_to_json s.mem);
        ("metrics", Metrics.to_json s.metrics);
      ];
      (match s.transitions with
       | Some m -> [ ("transitions", State_matrix.to_json m) ]
       | None -> []);
      (match s.timeseries with
       | Some ts -> [ ("timeseries", Recorder.to_json ts) ]
       | None -> []);
      (match s.sim with
       | Some sim ->
         [
           ( "sim",
             Json.Obj
               [
                 ("threads", Json.Int sim.Sim.threads);
                 ("events", Json.Int sim.Sim.events);
                 ("accesses", Json.Int sim.Sim.accesses);
                 ("total_allocated", Json.Int sim.Sim.total_allocated);
               ] );
         ]
       | None -> []);
    ]

let summary_to_json ?workload s =
  Export.envelope ~kind:"run" ~elapsed_s:s.elapsed
    (summary_body ?workload ~with_elapsed:false s)

let summaries_to_json ?workload ?elapsed_s ss =
  Export.envelope ~kind:"compare" ?elapsed_s
    [
      (match workload with Some w -> ("workload", w) | None -> ("workload", Json.Null));
      ("runs", Json.List (List.map (fun s -> Json.Obj (summary_body s)) ss));
    ]
