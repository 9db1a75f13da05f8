open Dgrace_events
open Dgrace_detectors
module Budget = Dgrace_resilience.Budget
module Trace_shard = Dgrace_trace.Trace_shard
module Span = Dgrace_obs.Span
module Recorder = Dgrace_obs.Recorder

type mode = Parallel | Sequential

(* The tracing-lane naming convention shared with the engine: shard
   [i] records on lane ["shard<i>"], so a detector built with that
   lane as its tracer lands its phase timers beside the shard's own
   spans. *)
let shard_lane = Printf.sprintf "shard%d"

type shard_outcome = {
  index : int;
  detector : Detector.t;
  tagged_races : (int * Report.t) list;
  stop : (int * Budget.stop) option;
  degraded : bool;
  events : int;
  busy_s : float;
  recorder : Recorder.t option;
}

type result = {
  plan : Trace_shard.t;
  outcomes : shard_outcome array;
  split_s : float;
  critical_path_s : float;
  elapsed_s : float;
}

(* Replay one shard's stream on a fresh detector, tagging every new
   race report with the global trace offset of the event that produced
   it (the collector's tag mechanism: the offset is stamped before
   each dispatch, and batched detectors stamp it per row themselves).

   A detector with a [process_batch] fast path gets the stream packed
   into struct-of-arrays batches; the packing happens before [busy_s]
   starts, mirroring how the split itself is outside the per-shard
   analysis time.  The batch path engages only when nothing per-event
   is requested — no budget guard, recorder, progress heartbeat or
   tracing lane — so those semantics are exactly the per-event loop's
   whenever they are observable. *)
let run_shard ~budget ~now_s ~progress ~lane ~recorder_for make
    (stream : (int * Event.t) array) index =
  let d : Detector.t = make index in
  let recorder =
    match recorder_for with Some f -> f index d | None -> None
  in
  let guard =
    match budget with
    | Some b when not (Budget.is_unlimited b) ->
      Some (Budget_guard.create ~now_s ~t0:(now_s ()) b)
    | Some _ | None -> None
  in
  let batches =
    if Option.is_none guard && recorder = None && lane = None && progress = None
    then
      match d.process_batch with
      | Some pb -> Some (pb, Trace_shard.batches_of stream)
      | None ->
        (* surfaced per shard; the merged registry sums them *)
        Dgrace_obs.Metrics.incr
          (Dgrace_obs.Metrics.counter d.metrics "engine.batch_fallback");
        None
    else None
  in
  let t0 = Unix.gettimeofday () in
  let delivered = ref 0 in
  let stop = ref None in
  (match batches with
   | Some (pb, batches) ->
     Array.iter
       (fun b ->
         pb b;
         delivered := !delivered + Dgrace_events.Batch.length b)
       batches
   | None ->
     (* The per-event dispatch is built once so the untraced path keeps
        the direct call; with a lane, dispatch goes through a sampled
        timer that attributes detector time on the shard's timeline. *)
     let on_event =
       match lane with
       | None -> d.on_event
       | Some buf ->
         (* one event in 64 is dispatched armed and timed; the shard's
            recorder tick stays exact (its merged final sample is
            observable output), so it lives in the delivery loop, not in
            the wrapper's [on_sample] *)
         Span.wrap_dispatch buf ~name:"detector.on_event" ~stride:64
           ~on_sample:(fun () -> ())
           d.on_event
     in
     let progress =
       match progress with None -> fun () -> () | Some f -> f
     in
     let last_off = ref (-1) in
     (match lane with Some buf -> Span.begin_span buf "shard.run" | None -> ());
     let deliver ev =
       on_event ev;
       incr delivered;
       (match recorder with Some r -> Recorder.tick r | None -> ());
       progress ()
     in
     let deliver =
       match guard with Some g -> Budget_guard.event g d deliver | None -> deliver
     in
     (try
        Array.iter
          (fun (off, ev) ->
            last_off := off;
            Report.Collector.set_tag d.collector off;
            deliver ev)
          stream
      with Budget_guard.Stop s ->
        stop := Some (!last_off, s);
        (match lane with
         | Some buf -> Span.instant buf "budget.stop"
         | None -> ()));
     (match lane with Some buf -> Span.end_span buf "shard.run" | None -> ()));
  (match lane with
   | Some buf -> Span.span buf "shard.finish" d.finish
   | None -> d.finish ());
  (match recorder with Some r -> Recorder.flush r | None -> ());
  let busy_s = Unix.gettimeofday () -. t0 in
  {
    index;
    detector = d;
    tagged_races = Report.Collector.tagged_races d.collector;
    stop = !stop;
    degraded =
      (match guard with Some g -> Budget_guard.degraded g | None -> false);
    events = !delivered;
    busy_s;
    recorder;
  }

let analyze ?(mode = Parallel) ?budget
    ?(clock = Dgrace_obs.Clock.ns) ?progress ?tracer ?recorder_for ~make
    ~shards ~granule events =
  let now_s () = float_of_int (clock ()) *. 1e-9 in
  let t0 = Unix.gettimeofday () in
  let main = Option.map Span.main tracer in
  (match main with Some b -> Span.begin_span b "par.split" | None -> ());
  let plan = Trace_shard.split ~shards ~granule events in
  (match main with
   | Some b ->
     Span.end_span b "par.split";
     if plan.Trace_shard.straddling > 0 then Span.instant b "par.weld"
   | None -> ());
  (* Shard lanes are registered here, on the calling domain, so lane
     order (and the exported timeline layout) is by shard index, not
     by whichever domain wins the registration race. *)
  let lanes =
    match tracer with
    | None -> Array.make shards None
    | Some t -> Array.init shards (fun i -> Some (Span.lane t (shard_lane i)))
  in
  let split_s = Unix.gettimeofday () -. t0 in
  let progress_hook =
    match progress with
    | None -> None
    | Some (every, f) ->
      (* one global heartbeat across all shards: count every delivered
         event atomically and let whichever domain crosses a multiple
         of [every] fire the callback (serialised by a mutex so lines
         do not interleave) *)
      let n = Atomic.make 0 in
      let m = Mutex.create () in
      Some
        (fun () ->
          let v = Atomic.fetch_and_add n 1 + 1 in
          if v mod every = 0 then begin
            Mutex.lock m;
            (try f v with e -> Mutex.unlock m; raise e);
            Mutex.unlock m
          end)
  in
  let run i =
    run_shard ~budget ~now_s ~progress:progress_hook
      ~lane:lanes.(i) ~recorder_for make plan.shards.(i) i
  in
  let outcomes =
    match mode with
    | Sequential -> Array.init shards run
    | Parallel ->
      if shards = 1 then [| run 0 |]
      else begin
        let doms =
          Array.init (shards - 1) (fun i ->
              Domain.spawn (fun () -> run (i + 1)))
        in
        let first = run 0 in
        Array.append [| first |] (Array.map Domain.join doms)
      end
  in
  (match main with Some b -> Span.instant b "par.join" | None -> ());
  let critical_path_s =
    Array.fold_left (fun acc o -> Float.max acc o.busy_s) 0. outcomes
  in
  { plan; outcomes; split_s; critical_path_s;
    elapsed_s = Unix.gettimeofday () -. t0 }

(* ------------------------------------------------------------------ *)
(* Pipelined sharded replay of a v2 trace file (doc/trace.md): one
   decoder domain streams blocks into a ring, the calling domain
   routes rows into per-shard rings of recycled batches, and [shards]
   detector domains drain their rings through [process_batch].

   Two streaming passes replace [split]'s two in-memory passes: a
   sequential prepass folds the file once through a
   {!Trace_shard.planner} (straddle welds + broadcast counts — and,
   because it decodes the whole file, any [Corrupt_trace] surfaces
   here with exactly the sequential offset, so the routed pass below
   only ever sees a clean file), then the pipelined pass routes.
   Routing, broadcast classes and row offsets match [split] exactly,
   so the merged outcome is bit-identical to [analyze] — the engine
   takes the materialised path whenever budgets, recorders, progress
   or tracing need per-event semantics. *)

exception Router_stopped

let analyze_pipelined ?(slots = Dgrace_trace.Trace_pipeline.default_slots)
    ?(clock = Dgrace_obs.Clock.ns) ~make ~shards:k ~granule path =
  let module Pipeline = Dgrace_trace.Trace_pipeline in
  let module Ring = Dgrace_trace.Batch_ring in
  if k < 1 then invalid_arg "Par.analyze_pipelined: shards must be >= 1";
  let t0 = Unix.gettimeofday () in
  (* prepass: weld + counts (and the corruption check) *)
  let p = Trace_shard.planner ~granule () in
  Dgrace_trace.Trace_format_v2.fold_batches path
    (fun () b -> Trace_shard.plan_batch p b)
    ();
  let plan = Trace_shard.plan_stats p ~shards:k in
  let split_s = Unix.gettimeofday () -. t0 in
  (* per-shard rings and detector domains *)
  let rings = Array.init k (fun _ -> Ring.create ~slots ~clock ()) in
  let run_shard i =
    let ring = rings.(i) in
    let d : Detector.t = make i in
    let t0 = Unix.gettimeofday () in
    let delivered = ref 0 in
    (try
       let consume =
         match d.process_batch with
         | Some pb -> pb
         | None ->
           Dgrace_obs.Metrics.incr
             (Dgrace_obs.Metrics.counter d.metrics "engine.batch_fallback");
           fun b ->
             for r = 0 to Dgrace_events.Batch.length b - 1 do
               Report.Collector.set_tag d.collector b.Dgrace_events.Batch.off.(r);
               d.on_event (Dgrace_events.Batch.event b r)
             done
       in
       let rec drain () =
         match Ring.take ring with
         | None -> ()
         | Some b ->
           consume b;
           delivered := !delivered + Dgrace_events.Batch.length b;
           Ring.recycle ring b;
           drain ()
       in
       drain ()
     with exn ->
       (* unblock the router, then let Domain.join surface this *)
       Ring.abort ring;
       raise exn);
    d.finish ();
    let busy_s = Unix.gettimeofday () -. t0 in
    {
      index = i;
      detector = d;
      tagged_races = Report.Collector.tagged_races d.collector;
      stop = None;
      degraded = false;
      events = !delivered;
      busy_s;
      recorder = None;
    }
  in
  let doms = Array.init k (fun i -> Domain.spawn (fun () -> run_shard i)) in
  (* router state: one staging batch per shard, acquired lazily *)
  let staging : Dgrace_events.Batch.t option array = Array.make k None in
  let stage s =
    let fresh () =
      match Ring.acquire rings.(s) with
      | Some b ->
        staging.(s) <- Some b;
        b
      | None -> raise Router_stopped  (* that shard died; join reports why *)
    in
    match staging.(s) with
    | None -> fresh ()
    | Some b ->
      if Dgrace_events.Batch.is_full b then begin
        Ring.publish rings.(s) b;
        staging.(s) <- None;
        fresh ()
      end
      else b
  in
  let route (b : Dgrace_events.Batch.t) =
    let n = Dgrace_events.Batch.length b in
    for i = 0 to n - 1 do
      let kind = b.Dgrace_events.Batch.kind.(i) in
      if kind <= Dgrace_events.Batch.code_write then
        Dgrace_events.Batch.copy_row ~src:b i
          ~dst:(stage (Trace_shard.plan_shard p ~shards:k
                         b.Dgrace_events.Batch.b.(i)))
      else
        (* sync / alloc / free: broadcast, as [Trace_shard.split] does *)
        for s = 0 to k - 1 do
          Dgrace_events.Batch.copy_row ~src:b i ~dst:(stage s)
        done
    done
  in
  let finish_rings () =
    Array.iteri
      (fun s staged ->
        (match staged with
         | Some b when Dgrace_events.Batch.length b > 0 ->
           Ring.publish rings.(s) b
         | Some b -> Ring.restore rings.(s) b
         | None -> ());
        staging.(s) <- None;
        Ring.close rings.(s))
      staging
  in
  let pipe =
    try
      let pipe = Pipeline.feed ~slots ~clock path route in
      finish_rings ();
      pipe
    with exn ->
      (* router or decoder failed: seal the shard rings so every shard
         domain drains out, then join to surface the real error *)
      finish_rings ();
      Array.iter (fun d -> try ignore (Domain.join d) with _ -> ()) doms;
      raise exn
  in
  let outcomes = Array.map Domain.join doms in
  let critical_path_s =
    Array.fold_left (fun acc o -> Float.max acc o.busy_s) 0. outcomes
  in
  ( {
      plan;
      outcomes;
      split_s;
      critical_path_s;
      elapsed_s = Unix.gettimeofday () -. t0;
    },
    pipe )

let merged_stop r =
  Array.fold_left
    (fun acc o ->
      match (acc, o.stop) with
      | None, s | s, None -> s
      | Some (a, _), Some (b, _) when a <= b -> acc
      | Some _, s -> s)
    None r.outcomes

let any_degraded r = Array.exists (fun o -> o.degraded) r.outcomes

let merged_races r =
  Array.to_list r.outcomes
  |> List.concat_map (fun o -> o.tagged_races)
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
