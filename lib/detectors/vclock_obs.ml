(* Publish a Vc_intern arena's statistics as vclock.* gauges.  Raw
   counts only, like the shadow.* family: ratios (hit rate, dedup,
   shares-per-copy) are derived downstream from the counts. *)

open Dgrace_vclock
module Metrics = Dgrace_obs.Metrics

let publish metrics arena =
  let g name v = Metrics.set (Metrics.gauge metrics name) v in
  let s : Vc_intern.stats = Vc_intern.stats arena in
  g "vclock.arena_bytes" s.s_bytes;
  g "vclock.arena_peak_bytes" s.s_peak_bytes;
  g "vclock.pool_bytes" s.s_pool_bytes;
  g "vclock.snapshots_live" s.s_live;
  g "vclock.snapshots_peak" s.s_peak_live;
  g "vclock.interns" s.s_interns;
  g "vclock.intern_hits" s.s_hits;
  g "vclock.memo_hits" s.s_memo_hits;
  g "vclock.shares" s.s_retains;
  g "vclock.releases" s.s_releases;
  g "vclock.payload_allocs" s.s_payload_allocs;
  g "vclock.payload_recycles" s.s_payload_recycles
