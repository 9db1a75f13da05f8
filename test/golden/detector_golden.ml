(* Golden result digests for the dynamic-granularity detector family.

   Every workload at scale 1, seeds 1-2, is simulated once and its
   event stream fed to six configurations of [Dynamic_granularity]
   (the [dynamic], [byte], [word], [dynamic-ext],
   [dynamic-no-init-state] and [dynamic-no-init-sharing] detectors),
   each through two entry shapes: [process_batch] over 4096-row
   batches, and [on_event] one event at a time.  Each run is reduced
   to a digest: the race count and an MD5 of

   - the reports, in collector order, with their stream tags;
   - the [Run_stats] counters;
   - the [Accounting] peaks (total and per factor, interned bytes,
     vector clocks) and the average sharing count;
   - the sharing-state transition matrix;
   - the [sharing.*], [cells.*] and [phase.*] counters.

   Shadow lookup and MRU gauges are left out: they describe how the
   index was walked, not what it answered.

   The checked-in table (detector_golden.txt) is the oracle of the
   [detector.golden] test: one line per case, the per-event digest,
   which both shapes must reproduce (batches apply in row order, so
   they answer exactly as [on_event] does).  It was produced by
   gen_detector_golden.exe and is never regenerated to make a detector
   change pass: a mismatch means the change altered a report, a
   statistic or a figure. *)

open Dgrace_events
open Dgrace_detectors
module Accounting = Dgrace_shadow.Accounting
module Metrics = Dgrace_obs.Metrics
module State_matrix = Dgrace_obs.State_matrix
module Spec = Dgrace_core.Spec
module Workload = Dgrace_workloads.Workload
module Registry = Dgrace_workloads.Registry

let detectors = [ "dynamic"; "byte"; "word"; "dynamic-ext";
                  "dynamic-no-init-state"; "dynamic-no-init-sharing" ]

let detector name =
  match Spec.of_string name with
  | Ok spec -> Spec.to_detector ~suppression:Suppression.default_runtime spec
  | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* event streams *)

let record (w : Workload.t) ~seed =
  let events = ref [] in
  let params = Workload.with_params ~scale:1 ~seed w in
  ignore (Workload.run ~params ~sink:(fun e -> events := e :: !events) w
          : Dgrace_sim.Sim.result);
  Array.of_list (List.rev !events)

(* The stream cut into full [Batch.default_capacity] batches over one
   location table, each row tagged with its stream index — the
   engine's batching sink. *)
let batches events =
  let n = Array.length events in
  let cap = Batch.default_capacity in
  let locs = Loc_table.create () in
  List.init ((n + cap - 1) / cap) (fun k ->
      let b = Batch.create ~capacity:cap ~locs () in
      for i = k * cap to min n ((k + 1) * cap) - 1 do
        Batch.push b ~off:i events.(i)
      done;
      b)

let run_batched (d : Detector.t) bs =
  let pb = Option.get d.Detector.process_batch in
  List.iter pb bs;
  d.finish ()

let run_per_event (d : Detector.t) events =
  Array.iteri
    (fun i e ->
      Report.Collector.set_tag d.Detector.collector i;
      d.on_event e)
    events;
  d.finish ()

(* ------------------------------------------------------------------ *)
(* digesting one run *)

let pinned_counter name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "sharing."; "cells."; "phase." ]

let digest (d : Detector.t) =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s;
                                   Buffer.add_char buf '\n') fmt in
  List.iter
    (fun (tag, r) -> line "race %d %s" tag (Report.to_string r))
    (Report.Collector.tagged_races d.collector);
  let s = d.stats in
  line "stats %d %d %d %d %d %d %d" s.accesses s.reads s.writes s.same_epoch
    s.sync_ops s.allocs s.frees;
  let a = d.account in
  line "account %d %d %d %d %d %d %d %h" (Accounting.peak_bytes a)
    (Accounting.peak_hash_bytes a) (Accounting.peak_vc_bytes a)
    (Accounting.peak_bitmap_bytes a) (Accounting.peak_interned_bytes a)
    (Accounting.peak_vcs a) (Accounting.total_vcs_created a)
    (Accounting.avg_sharing a);
  Option.iter
    (State_matrix.iter (fun ~from_ ~to_ ~count ->
         line "edge %d %d %d" from_ to_ count))
    d.transitions;
  List.iter
    (fun (name, v) -> if pinned_counter name then line "counter %s %d" name v)
    (List.sort compare (Metrics.counters d.metrics));
  Printf.sprintf "races=%d md5=%s"
    (Report.Collector.count d.collector)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* the table *)

let seeds = [ 1; 2 ]

(* One workload/seed/detector case and its two entry shapes, each
   returning the run's digest. *)
type case = { name : string; batch : unit -> string; event : unit -> string }

let cases () =
  List.concat_map
    (fun (w : Workload.t) ->
      List.concat_map
        (fun seed ->
          let events = lazy (record w ~seed) in
          List.map
            (fun det ->
              {
                name = Printf.sprintf "%s/s%d/%s" w.name seed det;
                batch =
                  (fun () ->
                    let d = detector det in
                    run_batched d (batches (Lazy.force events));
                    digest d);
                event =
                  (fun () ->
                    let d = detector det in
                    run_per_event d (Lazy.force events);
                    digest d);
              })
            detectors)
        seeds)
    Registry.all

(* A table line: the case's name and a digest, which the table holds
   from the per-event shape. *)
let line c digest = Printf.sprintf "%s/event %s" c.name digest
