(** Segment-based happens-before detection in the style of Valgrind DRD
    / RecPlay (the paper's first happens-before method, §I, and the
    Table 6 comparison baseline).

    A {e segment} is the code between two successive synchronisation
    operations of one thread; it carries the thread's vector clock and
    bitsets of the addresses read and written.  Two accesses race when
    their segments are concurrent (neither clock [<=] the other) and
    the address sets overlap with at least one write.  No per-address
    vector clock is kept — which is why DRD uses {e less memory} than
    FastTrack but pays {e set operations per access} and is slower, the
    trade-off Table 6 shows.

    Finished segments are garbage-collected once their clock is ordered
    before every live thread (they can no longer be concurrent with any
    future access). *)

open Dgrace_events

val create :
  ?granularity:int ->
  ?suppression:Suppression.t ->
  unit ->
  Detector.t
(** Granularity defaults to 4 bytes, DRD's natural word tracking. *)
