(* Measurement core shared by every table: run (workload × detector)
   and cache the result, since Tables 1–4 all read the same runs.

   Methodology notes (see EXPERIMENTS.md):
   - time is the minimum wall clock over [reps] runs of the identical
     (seeded) interleaving; "slowdown" is relative to the same run
     under the null detector, which is the paper's base time;
   - memory is the explicit shadow-structure accounting (the paper
     measures "based on object size" the same way);
   - suppression rules: our FastTrack-family detectors run with the
     DRD-like default rules, DRD/Inspector run unsuppressed — the
     paper's §V.C setup. *)

open Dgrace_core
open Dgrace_workloads
open Dgrace_events

type m = {
  elapsed : float;
  mem : Engine.mem_summary;
  same_epoch_ratio : float;
  accesses : int;
  races : int;
  suppressed : int;
  sim_threads : int;
  sim_accesses : int;
  total_allocated : int;
}

let scale = ref 4
let reps = ref 3

(* Full summaries of every (workload x detector) run this process made,
   for the self-describing BENCH metrics export. *)
let summaries : (string * string, Engine.summary) Hashtbl.t = Hashtbl.create 64

let suppression_for = function
  | Spec.Drd | Spec.Inspector | Spec.Eraser -> Suppression.empty
  | _ -> Suppression.default_runtime

let cache : (string * string, m) Hashtbl.t = Hashtbl.create 64

(* [Engine.analyze] for measurement runs: an error is a bench bug *)
let run_config config source =
  match Engine.analyze config source with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let analyze ?(suppression = Suppression.empty) spec source =
  run_config { (Engine.Config.make spec) with Engine.Config.suppression } source

let bench_policy = Dgrace_sim.Scheduler.Chunked { seed = 1; chunk = 64 }

(* One recorded event stream per workload at the current scale: the
   replay measurements analyse the identical trace for every
   detector. *)
let recordings : (string, Event.t array * Dgrace_sim.Sim.result) Hashtbl.t =
  Hashtbl.create 16

let recorded (w : Workload.t) =
  match Hashtbl.find_opt recordings w.name with
  | Some r -> r
  | None ->
    let p = Workload.with_params ~scale:!scale w in
    let buf = ref [] in
    let sim =
      Workload.run ~policy:bench_policy ~params:p
        ~sink:(fun ev -> buf := ev :: !buf)
        w
    in
    let r = (Array.of_list (List.rev !buf), sim) in
    Hashtbl.replace recordings w.name r;
    r

(* One recording packed into struct-of-arrays batches over one
   location table for the detectors' [process_batch] path; row offsets
   are stream positions. *)
let batches_of events =
  let n = Array.length events in
  let cap = Batch.default_capacity in
  let locs = Loc_table.create () in
  Array.init ((n + cap - 1) / cap) (fun bi ->
      let b = Batch.create ~capacity:cap ~locs () in
      for i = bi * cap to min n ((bi + 1) * cap) - 1 do
        Batch.push b ~off:i events.(i)
      done;
      b)

let run_once (w : Workload.t) spec =
  let p = Workload.with_params ~scale:!scale w in
  analyze ~suppression:(suppression_for spec) spec
    (Engine.Source.Program { policy = bench_policy; main = w.program p })

let get (w : Workload.t) spec =
  let key = (w.name, Spec.name spec) in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
    let best = ref None in
    for _ = 1 to !reps do
      let s = run_once w spec in
      match !best with
      | Some (b : Engine.summary) when b.elapsed <= s.elapsed -> ()
      | _ -> best := Some s
    done;
    let s = Option.get !best in
    Hashtbl.replace summaries key s;
    let sim =
      match s.sim with Some sim -> sim | None -> snd (recorded w)
    in
    let m =
      {
        elapsed = s.elapsed;
        mem = s.mem;
        same_epoch_ratio = Dgrace_detectors.Run_stats.same_epoch_ratio s.stats;
        accesses = s.stats.accesses;
        races = s.race_count;
        suppressed = s.suppressed;
        sim_threads = sim.threads;
        sim_accesses = sim.accesses;
        total_allocated = sim.total_allocated;
      }
    in
    Hashtbl.replace cache key m;
    m

(* full summary of the cached best run, for readers that need the
   detector's own instruments (the vclock table reads vclock.* gauges) *)
let summary (w : Workload.t) spec =
  ignore (get w spec : m);
  Hashtbl.find summaries (w.name, Spec.name spec)

let gauge w spec name =
  match List.assoc_opt name (Dgrace_obs.Metrics.gauges (summary w spec).metrics) with
  | Some v -> v
  | None -> 0

let slowdown w spec =
  let base = (get w Spec.No_detection).elapsed in
  let t = (get w spec).elapsed in
  if base <= 0. then Float.nan else t /. base

(* memory relative to the byte detector, the paper's reference point *)
let mem_vs_byte w spec =
  let byte = (get w Spec.byte).mem.peak_bytes in
  let m = (get w spec).mem.peak_bytes in
  if byte = 0 then Float.nan else float_of_int m /. float_of_int byte

let geomean = Dgrace_util.Stat.geomean
let kb n = n / 1024

(* Everything measured so far as one versioned document: each run is
   the same JSON body [racedet run --metrics-out] writes, so BENCH
   trajectories carry their own schema. *)
let metrics_json () =
  let module Json = Dgrace_obs.Json in
  let runs =
    Hashtbl.fold
      (fun (wname, dname) s acc -> ((wname, dname), s) :: acc)
      summaries []
    |> List.sort compare
    |> List.map (fun ((wname, _), s) ->
        match Engine.summary_to_json ~workload:(Json.String wname) s with
        | Json.Obj fields ->
          (* strip the per-run envelope; the document carries one *)
          Json.Obj
            (List.filter
               (fun (k, _) ->
                 k <> Dgrace_obs.Export.version_key
                 && k <> "kind" && k <> "generator")
               fields)
        | other -> other)
  in
  Dgrace_obs.Export.envelope ~kind:"bench"
    [
      ("scale", Json.Int !scale);
      ("reps", Json.Int !reps);
      ("runs", Json.List runs);
    ]
