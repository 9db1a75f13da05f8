(** The page-clustered [process_batch] of the FastTrack family
    (doc/shadow.md).

    Access rows are grouped by aligned 4 KiB page and applied page by
    page; sync rows, frees and accesses whose slot range straddles a
    page are barriers applied in row order.  The same-epoch test runs
    inline with the thread's bitmap cached across same-tid rows, so a
    hit costs two bit tests and three stat bumps and never calls back
    into the detector.  Reports come out in row order (the collector
    is re-sorted by row offset after each batch), and the result —
    reports, [Run_stats], accounting — equals dispatching every row to
    the detector's [on_event] in order.  [cluster.rows],
    [cluster.pages] and [cluster.barriers] count the grouping in
    [metrics]. *)

open Dgrace_events

val make :
  granularity:int ->
  weld:bool ->
  metrics:Dgrace_obs.Metrics.t ->
  stats:Run_stats.t ->
  collector:Report.Collector.t ->
  env:Vc_env.t ->
  bitmap:(int -> Dgrace_shadow.Epoch_bitmap.t) ->
  on_boundary:(int -> unit) ->
  on_access:
    (tid:int -> kind:Event.access_kind -> addr:int -> size:int -> loc:string -> unit) ->
  on_free:(addr:int -> size:int -> unit) ->
  Batch.t ->
  unit
(** [make ... ] is a detector's [process_batch].

    - [granularity] (a power of two) is the slot width the detector
      rounds an access out to; the rounded range decides the page and
      whether the row straddles.  Above 4096 every access straddles
      and the batch applies in row order.
    - [weld] keeps every later access to a page touched by a
      straddling access in row order too — needed when one cell can
      span two pages (the dynamic detector), not when cells are fixed
      aligned slots (FastTrack).
    - [bitmap tid] is the thread's same-epoch bitmap; a bitmap that is
      never marked turns the fast path off.
    - [on_access] is the detector's per-event access handler, called
      on a fast-path miss after the row's offset is stamped as the
      collector tag; [on_free] likewise for free rows.
    - [env] and [on_boundary] run sync rows through
      {!Vc_env.handle_coded}.
    @raise Invalid_argument if [granularity] is not a power of two. *)
