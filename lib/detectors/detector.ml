open Dgrace_events
open Dgrace_shadow

type t = {
  name : string;
  on_event : Event.t -> unit;
  process_batch : (Batch.t -> unit) option;
  finish : unit -> unit;
  collector : Report.Collector.t;
  account : Accounting.t;
  stats : Run_stats.t;
  metrics : Dgrace_obs.Metrics.t;
  transitions : Dgrace_obs.State_matrix.t option;
  degrade : (unit -> bool) option;
}

let races t = Report.Collector.races t.collector
let race_count t = Report.Collector.count t.collector

let null () =
  {
    name = "none";
    on_event = (fun (_ : Event.t) -> ());
    process_batch = Some (fun (_ : Batch.t) -> ());
    finish = (fun () -> ());
    collector = Report.Collector.create ();
    account = Accounting.create ();
    stats = Run_stats.create ();
    metrics = Dgrace_obs.Metrics.create ();
    transitions = None;
    degrade = None;
  }
