open Dgrace_events
open Dgrace_detectors
module Trace_shard = Dgrace_trace.Trace_shard

type shard_outcome = {
  tagged_races : (int * Report.t) list;
  events : int;
  busy_s : float;
}

type result = {
  outcomes : shard_outcome array;
  split_s : float;
  critical_path_s : float;
  elapsed_s : float;
}

(* One decoder domain streams blocks into a ring, the calling domain
   routes rows into per-shard rings of recycled batches, and [shards]
   detector domains drain their rings through [process_batch].

   Two streaming passes: a sequential prepass folds the file once
   through a {!Trace_shard.planner} (straddle welds — and, because it
   decodes the whole file, any [Corrupt_trace] surfaces here with
   exactly the sequential offset, so the routed pass below only ever
   sees a clean file), then the pipelined pass routes.  Rows keep
   their global offset, so the merged races come out in sequential
   detection order. *)

exception Router_stopped

let analyze_pipelined ?(slots = Dgrace_trace.Trace_pipeline.default_slots)
    ?(clock = Dgrace_obs.Clock.ns) ~make ~shards:k ~granule path =
  let module Pipeline = Dgrace_trace.Trace_pipeline in
  let module Ring = Dgrace_trace.Batch_ring in
  if k < 1 then invalid_arg "Par.analyze_pipelined: shards must be >= 1";
  let t0 = Unix.gettimeofday () in
  (* prepass: welds (and the corruption check) *)
  let p = Trace_shard.planner ~granule () in
  Dgrace_trace.Trace_format_v2.fold_batches path
    (fun () b -> Trace_shard.plan_batch p b)
    ();
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
      tagged_races = Report.Collector.tagged_races d.collector;
      events = !delivered;
      busy_s;
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
        (* sync / alloc / free: broadcast, so every shard replays the
           sequential clock history *)
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
      outcomes;
      split_s;
      critical_path_s;
      elapsed_s = Unix.gettimeofday () -. t0;
    },
    pipe )

let merged_races r =
  Array.to_list r.outcomes
  |> List.concat_map (fun o -> o.tagged_races)
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd
