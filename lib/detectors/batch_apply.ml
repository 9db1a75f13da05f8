open Dgrace_events
open Dgrace_shadow

(* Row-order batch application (doc/shadow.md), shared by the FastTrack
   family: one pass over the batch, every row applied where it stands,
   so the result — reports, [Run_stats], accounting peaks, counters —
   is that of dispatching each row to the detector's [on_event].

   The same-epoch test runs inline, once per access row.  The thread's
   bitmap is cached in locals across same-tid rows and never across
   batches (degradation sheds the bitmaps between batches).  A hit makes
   exactly the state changes the detector's own fast path makes — no
   collector tag, hits never report.  A miss stamps the row's offset
   and goes straight to the detector's analysed path with the row's
   location id.  Access counts, hits and misses alike, are kept in
   locals and added to [Run_stats] once per batch.  [i < length b <=
   capacity] of every column, so the reads are in bounds by
   construction. *)

let make ~(stats : Run_stats.t) ~collector ~env ~bitmap ~on_boundary ~on_miss ~on_free =
  let unmarked = Epoch_bitmap.create () in
  fun (b : Batch.t) ->
    let kind = b.Batch.kind and ta = b.Batch.a and tb = b.Batch.b
    and tc = b.Batch.c in
    let cached_tid = ref (-1) and cached_bm = ref unmarked in
    let accesses = ref 0 and writes = ref 0 and hits = ref 0 in
    for i = 0 to Batch.length b - 1 do
      let k = Array.unsafe_get kind i in
      if k <= Batch.code_write then begin
        let tid = Array.unsafe_get ta i in
        let addr = Array.unsafe_get tb i in
        let size = Array.unsafe_get tc i in
        let write = k = Batch.code_write in
        incr accesses;
        if write then incr writes;
        if !cached_tid <> tid then begin
          cached_tid := tid;
          cached_bm := bitmap tid
        end;
        if Epoch_bitmap.test_range !cached_bm ~write ~lo:addr ~hi:(addr + size - 1)
        then incr hits
        else begin
          Report.Collector.set_tag collector (Array.unsafe_get b.Batch.off i);
          on_miss ~tid ~write ~addr ~size ~loc:(Array.unsafe_get b.Batch.loc i)
        end
      end
      else if k = Batch.code_alloc then stats.allocs <- stats.allocs + 1
      else if k = Batch.code_free then begin
        Report.Collector.set_tag collector (Array.unsafe_get b.Batch.off i);
        on_free ~addr:(Array.unsafe_get tb i) ~size:(Array.unsafe_get tc i)
      end
      else if
        Vc_env.handle_coded env ~kind:k ~a:(Array.unsafe_get ta i)
          ~b:(Array.unsafe_get tb i) ~on_boundary
      then stats.sync_ops <- stats.sync_ops + 1
    done;
    stats.accesses <- stats.accesses + !accesses;
    stats.writes <- stats.writes + !writes;
    stats.reads <- stats.reads + (!accesses - !writes);
    stats.same_epoch <- stats.same_epoch + !hits
