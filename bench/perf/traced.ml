(* The traced part: measures each layer from outside, in process, by
   timing calls into the layer's public entry points.  It uses only
   [Workload.run], [Trace_format_v2.to_file]/[fold_batches],
   [Trace_pipeline.feed], [Spec.to_detector] with the [Detector.t]
   fields, and [Par.analyze_pipelined], so engine refactors do not
   have to edit it.  Spans (workload -> program -> layer) stay in
   memory and are written as JSON when the run ends. *)

open Dgrace_events
module Json = Dgrace_obs.Json
module Clock = Dgrace_obs.Clock
module Metrics = Dgrace_obs.Metrics
module Detector = Dgrace_detectors.Detector
module Run_stats = Dgrace_detectors.Run_stats
module Accounting = Dgrace_shadow.Accounting
module Spec = Dgrace_core.Spec
module V2 = Dgrace_trace.Trace_format_v2
module Workload = Dgrace_workloads.Workload

(* {1 Spans} *)

type span = { id : int; parent : int; name : string; start_ns : int; mutable end_ns : int }

type spans = { run_id : string; mutable all : span list; mutable open_ : int list }

(* [timed sp name f] runs [f] inside a span and also returns its
   duration in seconds. *)
let timed sp name f =
  let parent = match sp.open_ with p :: _ -> p | [] -> -1 in
  let s = { id = List.length sp.all; parent; name; start_ns = Clock.ns (); end_ns = 0 } in
  sp.all <- s :: sp.all;
  sp.open_ <- s.id :: sp.open_;
  let close () =
    s.end_ns <- Clock.ns ();
    sp.open_ <- List.tl sp.open_
  in
  let x = Fun.protect ~finally:close f in
  (x, float (s.end_ns - s.start_ns) /. 1e9)

let in_span sp name f = fst (timed sp name f)

(* A span's self time: its duration minus its children's, which never
   overlap because the benchmark makes its calls one at a time. *)
let self_ns spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace child s.parent (Option.value (Hashtbl.find_opt child s.parent) ~default:0 + s.end_ns - s.start_ns))
    spans;
  fun s -> s.end_ns - s.start_ns - Option.value (Hashtbl.find_opt child s.id) ~default:0

let spans_json sp =
  let spans = List.rev sp.all in
  let self = self_ns spans in
  let by_name = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace by_name s.name (Option.value (Hashtbl.find_opt by_name s.name) ~default:0 + self s)) spans;
  let names = List.sort_uniq compare (List.map (fun s -> s.name) spans) in
  Json.Obj
    [
      ("run_id", String sp.run_id);
      ( "spans",
        List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Int s.id); ("parent", Int s.parent); ("name", String s.name); ("run", String sp.run_id);
                   ("start_ns", Int s.start_ns); ("end_ns", Int s.end_ns); ("self_ns", Int (self s));
                 ])
             spans) );
      ("self_s", Obj (List.map (fun n -> (n, Json.Float (float (Hashtbl.find by_name n) /. 1e9))) names));
    ]

(* Checks a written span file: every child lies inside its parent and
   every self time is non-negative. *)
let validate path =
  let ( let* ) = Result.bind in
  let* j = Json.parse_file path in
  let int name s = match Json.member name s with Some (Json.Int i) -> Ok i | _ -> Error ("span without " ^ name) in
  let* spans = match Json.member "spans" j with Some (List l) -> Ok l | _ -> Error "no spans list" in
  let tbl = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        let* id = int "id" s in
        let* parent = int "parent" s in
        let* a = int "start_ns" s in
        let* b = int "end_ns" s in
        let* self = int "self_ns" s in
        Hashtbl.replace tbl id (parent, a, b);
        if b < a then Error (Printf.sprintf "span %d ends before it starts" id)
        else if self < 0 then Error (Printf.sprintf "span %d has negative self time" id)
        else Ok ())
      (Ok ()) spans
  in
  Hashtbl.fold
    (fun id (parent, a, b) acc ->
      let* () = acc in
      if parent < 0 then Ok ()
      else
        match Hashtbl.find_opt tbl parent with
        | Some (_, pa, pb) when pa <= a && b <= pb -> Ok ()
        | Some _ -> Error (Printf.sprintf "span %d lies outside its parent %d" id parent)
        | None -> Error (Printf.sprintf "span %d has no parent %d" id parent))
    tbl (Ok ())

(* {1 Layers} *)

(* Additive quantities of one pass, summed over programs; ratios are
   formed from the sums at the end. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v = Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.)
let get (acc : acc) k = Option.value (Hashtbl.find_opt acc k) ~default:0.

let count (d : Detector.t) name =
  match Metrics.find_counter d.metrics name with
  | Some v -> float v
  | None -> float (Option.value (List.assoc_opt name (Metrics.gauges d.metrics)) ~default:0)

let policy seed = Dgrace_sim.Scheduler.Chunked { seed; chunk = 64 }
let suppression = Suppression.default_runtime
let detector spec = Spec.to_detector ~suppression spec

let batch_fn (d : Detector.t) =
  match d.process_batch with Some pb -> pb | None -> invalid_arg (d.name ^ ": no batched path")

(* Every timed layer starts from a collected heap, so garbage left by
   the layer before is not charged to it. *)
let layer sp name f =
  Gc.full_major ();
  timed sp name f

let one_program ~sp ~tally ~racedet ~work ~seed acc (program, scale) =
  let w = Option.get (Dgrace_workloads.Registry.find program) in
  let params = Workload.with_params ~scale ~seed w in
  let expected = w.expected_races in
  let path = Filename.concat work (Printf.sprintf "%s.s%d.traced.v2" program scale) in
  let races what n =
    ignore
      (Child.gate tally ~what
         (if n = expected then Ok () else Error (Printf.sprintf "races: %d, expected %d" n expected)))
  in
  (* sim: the simulator alone, events discarded *)
  let sim, sim_s = layer sp "sim" (fun () -> Workload.run ~policy:(policy seed) ~params ~sink:ignore w) in
  let events = float sim.Dgrace_sim.Sim.events in
  (* trace: encode pre-materialised events, then a count-only decode *)
  let evs = ref [] in
  ignore (Workload.run ~policy:(policy seed) ~params ~sink:(fun e -> evs := e :: !evs) w);
  let evs = List.rev !evs in
  let (_, written), encode_s = layer sp "trace.encode" (fun () -> V2.to_file path (fun sink -> List.iter sink evs)) in
  let bytes = float (Unix.stat path).st_size in
  let decoded, decode_s = layer sp "trace.decode" (fun () -> V2.fold_batches path (fun n b -> n + Batch.length b) 0) in
  ignore
    (Child.gate tally ~what:("encode/decode " ^ path)
       (if written = sim.events && decoded = sim.events then Ok ()
        else Error (Printf.sprintf "%d events simulated, %d written, %d decoded" sim.events written decoded)));
  (* pipeline: decoder domain feeding the dynamic detector's batch path *)
  let d = detector Spec.dynamic in
  let stats, pipeline_s =
    layer sp "pipeline" (fun () ->
        let st = Dgrace_trace.Trace_pipeline.feed ~clock:Clock.ns path (batch_fn d) in
        d.finish ();
        st)
  in
  races "pipeline" (Detector.race_count d);
  (* detect: the detectors alone over batches decoded beforehand *)
  let batches =
    List.rev
      (V2.fold_batches path
         (fun l b ->
           let c = Batch.create ~capacity:(Batch.length b) () in
           for i = 0 to Batch.length b - 1 do
             Batch.copy_row ~src:b i ~dst:c
           done;
           c :: l)
         [])
  in
  let over_batches name spec apply =
    let d = detector spec in
    let apply = apply d in
    let gc0 = Gc.quick_stat () in
    let (), s =
      layer sp name (fun () ->
          List.iter apply batches;
          d.finish ())
    in
    races name (Detector.race_count d);
    (d, s, gc0, Gc.quick_stat ())
  in
  let d, batch_s, gc0, gc1 = over_batches "detect.batch" Spec.dynamic batch_fn in
  let _, byte_batch_s, _, _ = over_batches "detect.byte_batch" Spec.byte batch_fn in
  let _, event_s, _, _ = over_batches "detect.event" Spec.dynamic (fun d -> Batch.iter_events d.on_event) in
  (* par: two shards, each on its own domain, behind the decoder *)
  let (par, _), _ =
    layer sp "par" (fun () ->
        Dgrace_par.Par.analyze_pipelined ~clock:Clock.ns
          ~make:(fun _ -> detector Spec.dynamic)
          ~shards:2 ~granule:Dgrace_detectors.Dynamic_granularity.share_granule path)
  in
  races "par 2 shards" (List.length (Dgrace_par.Par.merged_races par));
  (* engine: the untraced CLI replay of the same file *)
  let cli =
    in_span sp "engine.cli_replay" (fun () ->
        List.init 3 (fun _ ->
            let o = Child.run ~racedet ~work [ "replay"; path; "-d"; "dynamic" ] in
            ignore
              (Child.gate tally ~what:(Child.command o)
                 (Child.check_detect ~expected ~accesses:d.stats.Run_stats.accesses o));
            o.wall_s))
  in
  let st = d.stats and a = d.account in
  List.iter
    (fun (k, v) -> add acc k v)
    [
      ("events", events); ("sim.s", sim_s); ("encode.s", encode_s); ("decode.s", decode_s); ("bytes", bytes);
      ("pipeline.s", pipeline_s);
      ("decode_stall.s", float stats.Dgrace_trace.Trace_pipeline.decode_stall_ns /. 1e9);
      ("detect_stall.s", float stats.detect_stall_ns /. 1e9);
      ("batch.s", batch_s); ("byte_batch.s", byte_batch_s); ("event.s", event_s);
      ("accesses", float st.accesses); ("same_epoch", float st.same_epoch);
      ("epoch_compare", count d "phase.epoch_compare"); ("vc_op", count d "phase.vc_op");
      ("sharing.decisions", count d "sharing.decisions"); ("cells.split", count d "cells.split");
      ("cluster.pages", count d "cluster.pages"); ("cluster.rows", count d "cluster.rows");
      ("peak_vcs", float (Accounting.peak_vcs a));
      ("vcs_created", float (Accounting.total_vcs_created a));
      ("locations_bound", Accounting.avg_sharing a *. float (Accounting.total_vcs_created a));
      ("index_lookups", count d "shadow.index_lookups"); ("mru_hits", count d "shadow.mru_hits");
      ("page_allocs", count d "shadow.page_allocs"); ("page_recycles", count d "shadow.page_recycles");
      ("page_expansions", count d "shadow.page_expansions");
      ("peak_hash", float (Accounting.peak_hash_bytes a)); ("peak_vc", float (Accounting.peak_vc_bytes a));
      ("peak_bitmap", float (Accounting.peak_bitmap_bytes a));
      ("interns", count d "vclock.interns"); ("memo_hits", count d "vclock.memo_hits");
      ("payload_allocs", count d "vclock.payload_allocs"); ("arena_peak", count d "vclock.arena_peak_bytes");
      ("minor_words", gc1.minor_words -. gc0.minor_words);
      ("promoted_words", gc1.promoted_words -. gc0.promoted_words);
      ("major_collections", float (gc1.major_collections - gc0.major_collections));
      ("par.elapsed", par.elapsed_s); ("par.split", par.split_s); ("par.critical", par.critical_path_s);
      ("par.busy", List.fold_left (fun s (o : Dgrace_par.Par.shard_outcome) -> s +. o.busy_s) 0. (Array.to_list par.outcomes));
      ("cli.s", Quant.median cli); ("top_heap_words", float gc1.top_heap_words);
    ]

(* The per-layer metrics of one pass over the mix. *)
let metrics_of acc =
  let g = get acc in
  let ratio a b = if g b = 0. then 0. else g a /. g b in
  let mb k = g k /. 1e6 in
  [
    ("sim.s", "s", g "sim.s");
    ("sim.evps", "Mev/s", g "events" /. g "sim.s" /. 1e6);
    ("trace.encode_s", "s", g "encode.s");
    ("trace.decode_s", "s", g "decode.s");
    ("trace.decode_mbps", "MB/s", g "bytes" /. g "decode.s" /. 1e6);
    ("pipeline.s", "s", g "pipeline.s");
    ("pipeline.decode_stall_s", "s", g "decode_stall.s");
    ("pipeline.detect_stall_s", "s", g "detect_stall.s");
    ("pipeline.overlap", "ratio", (g "decode.s" +. g "batch.s") /. g "pipeline.s");
    ("detect.batch_s", "s", g "batch.s");
    ("detect.byte_batch_s", "s", g "byte_batch.s");
    ("detect.event_s", "s", g "event.s");
    ("detect.same_epoch_ratio", "ratio", ratio "same_epoch" "accesses");
    ("detect.epoch_compares_per_access", "1/access", ratio "epoch_compare" "accesses");
    ("detect.vc_ops_per_access", "1/access", ratio "vc_op" "accesses");
    ("detect.sharing_decisions", "count", g "sharing.decisions");
    ("detect.cells_split", "count", g "cells.split");
    ("detect.cluster_hit_ratio", "ratio", 1. -. ratio "cluster.pages" "cluster.rows");
    ("detect.peak_vcs", "count", g "peak_vcs");
    ("detect.avg_sharing", "loc/clock", ratio "locations_bound" "vcs_created");
    ("shadow.lookups_per_access", "1/access", ratio "index_lookups" "accesses");
    ("shadow.mru_hit_ratio", "ratio", ratio "mru_hits" "index_lookups");
    ("shadow.page_allocs", "count", g "page_allocs");
    ("shadow.page_recycles", "count", g "page_recycles");
    ("shadow.page_expansions", "count", g "page_expansions");
    ("shadow.peak_hash_mb", "MB", mb "peak_hash");
    ("shadow.peak_vc_mb", "MB", mb "peak_vc");
    ("shadow.peak_bitmap_mb", "MB", mb "peak_bitmap");
    ("vclock.interns", "count", g "interns");
    ("vclock.memo_hit_ratio", "ratio", ratio "memo_hits" "interns");
    ("vclock.payload_allocs", "count", g "payload_allocs");
    ("vclock.arena_peak_mb", "MB", mb "arena_peak");
    ("gc.minor_words_per_ev", "words/event", ratio "minor_words" "events");
    ("gc.promoted_words_per_ev", "words/event", ratio "promoted_words" "events");
    ("gc.major_collections", "count", g "major_collections");
    ("gc.top_heap_mb", "MB", g "top_heap_words" *. float (Sys.word_size / 8) /. 1e6);
    ("par.elapsed_s", "s", g "par.elapsed");
    ("par.split_s", "s", g "par.split");
    ("par.critical_path_s", "s", g "par.critical");
    ("par.busy_sum_s", "s", g "par.busy");
    ("par.speedup", "ratio", g "pipeline.s" /. g "par.elapsed");
    ("engine.residual_s", "s", g "cli.s" -. g "pipeline.s");
  ]

let run ~racedet ~work ~seed ~seconds ~trace_out (mix : Mixes.t) =
  let tally = Child.tally () in
  let sp = { run_id = Printf.sprintf "%s-seed%d-pid%d" mix.name seed (Unix.getpid ()); all = []; open_ = [] } in
  let passes = ref [] and programs = ref [] in
  let one_pass () =
    let acc = Hashtbl.create 64 in
    programs :=
      in_span sp mix.name (fun () ->
          List.map
            (fun ((program, _) as p) ->
              let own = Hashtbl.create 64 in
              in_span sp program (fun () -> one_program ~sp ~tally ~racedet ~work ~seed own p);
              (* a high-water mark, so the mix's is the largest *)
              Hashtbl.iter (fun k v -> if k = "top_heap_words" then Hashtbl.replace acc k (Float.max v (get acc k)) else add acc k v) own;
              (program, own))
            mix.programs);
    passes := metrics_of acc :: !passes
  in
  ignore (Quant.repeat ~seconds ~min:1 one_pass);
  Json.to_file trace_out (spans_json sp);
  ignore (Child.gate tally ~what:("span file " ^ trace_out) (validate trace_out));
  let metrics =
    List.mapi
      (fun i (name, unit, _) ->
        { Results.name; unit; stat = Quant.of_samples (List.map (fun p -> let _, _, v = List.nth p i in v) !passes) })
      (List.hd !passes)
  in
  let program_json (program, own) =
    ( program,
      Json.Obj (List.map (fun k -> (k, Json.Float (get own k))) (List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) own []))) )
  in
  {
    Results.workload = mix.name;
    mode = "per_layer";
    seed;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics;
    detail =
      Json.Obj
        [ ("passes", Int (List.length !passes)); ("trace_out", String trace_out); ("programs", Obj (List.map program_json !programs)) ];
  }
