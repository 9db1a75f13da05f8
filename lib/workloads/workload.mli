(** Synthetic benchmark workloads.

    Each workload models the shared-memory access {e pattern} of one of
    the paper's eleven benchmark programs (8 PARSEC programs plus
    FFmpeg, pbzip2 and hmmsearch) — the statistics that drive the
    evaluation: access sizes and alignment, same-epoch ratio,
    neighbourhood share-ability, allocation churn, read-sharing — and
    seeds exactly the races the paper reports finding.  The benchmark
    harness runs these under every detector. *)

open Dgrace_sim

type params = {
  threads : int;  (** worker thread count (the paper's Table 1 column) *)
  scale : int;  (** linear size factor; 1 ≈ 10⁵ access events *)
  seed : int;  (** PRNG seed for data-dependent access patterns *)
}

type t = {
  name : string;
  description : string;
  defaults : params;
  expected_races : int;
      (** distinct racy locations seeded, as counted by the
          byte-granularity FastTrack detector with the default
          suppression rules *)
  program : params -> unit -> unit;
      (** builds a fresh program closure; all sync objects are created
          inside, so the closure can be run any number of times *)
}

val with_params : ?threads:int -> ?scale:int -> ?seed:int -> t -> params
(** The workload's defaults overridden field-wise. *)

val run :
  ?policy:Scheduler.policy ->
  ?params:params ->
  sink:(Dgrace_events.Event.t -> unit) ->
  t ->
  Sim.result
(** Run once under the simulator, delivering events to [sink]. *)

val run_batches :
  ?policy:Scheduler.policy ->
  ?params:params ->
  consume:(Dgrace_events.Batch.t -> unit) ->
  t ->
  Sim.result
(** {!run} with the events delivered as batch rows
    ({!Dgrace_sim.Sim.run_batches}). *)
