(** The row-order [process_batch] of the FastTrack family
    (doc/shadow.md).

    One pass over the batch in row order.  Access rows take the
    same-epoch test inline, once each, with the thread's bitmap cached
    across same-tid rows of one batch, so a hit costs a mask test per
    bitmap byte it covers and never calls back into the detector; a
    miss goes straight to the detector's analysed path.  Access counts
    reach [Run_stats] once per batch.  Alloc, free and sync rows are applied where they stand.
    Because no row moves, the result — reports and their order,
    [Run_stats], [Accounting] peaks and every counter — equals
    dispatching each row to the detector's [on_event] in order (the
    config-lattice law in test/test_pipeline.ml and the
    [detector.golden] table check this). *)

open Dgrace_events

val make :
  stats:Run_stats.t ->
  collector:Report.Collector.t ->
  env:Vc_env.t ->
  bitmap:(int -> Dgrace_shadow.Epoch_bitmap.t) ->
  on_boundary:(int -> unit) ->
  on_miss:(tid:int -> write:bool -> addr:int -> size:int -> loc:int -> unit) ->
  on_free:(addr:int -> size:int -> unit) ->
  Batch.t ->
  unit
(** [make ... ] is a detector's [process_batch].

    - [bitmap tid] is the thread's same-epoch bitmap, fetched at most
      once per run of same-tid rows in a batch; a bitmap that is never
      marked turns the fast path off.
    - [on_miss] is the detector's analysed path, called on a
      same-epoch miss after the row's offset is stamped as the
      collector tag, with the row's location id; it counts nothing in
      [Run_stats] (this function counts every access row).  [on_free]
      is called likewise for free rows.
    - [env] and [on_boundary] run sync rows through
      {!Vc_env.handle_coded}. *)
