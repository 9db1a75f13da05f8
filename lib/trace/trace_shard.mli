(** The address-line router of the sharded replay probe
    ([Par.analyze_pipelined] in lib/par).

    The address space is cut into aligned [granule]-byte lines and each
    line's accesses are routed to one shard by hashing the line id.  An
    access that straddles a line boundary welds the lines it touches
    into one {e super-granule} (union-find) so the whole group lands on
    a single shard.  The router itself broadcasts every sync, alloc and
    free row to every shard, so each shard replays the exact sequential
    clock history.

    Sharded replay is not a product path (doc/parallel.md records why);
    this planner stays only for the benchmark's [par.*] rows. *)

open Dgrace_events

type planner

val planner : granule:int -> unit -> planner
(** @raise Invalid_argument if [granule] is not a power of two. *)

val plan_batch : planner -> Batch.t -> unit
(** Fold one decoded batch: weld the lines a straddling access links. *)

val plan_shard : planner -> shards:int -> int -> int
(** [plan_shard p ~shards addr] — the owning shard of [addr], after
    every batch was planned.  Deterministic: [Hashtbl.hash] on a line
    id is stable across runs and processes. *)
