(** A hybrid happens-before + lockset detector standing in for Intel
    Inspector XE in the Table 6 comparison.

    Inspector XE is closed source; its published behaviour class is a
    hybrid checker that keeps a bounded per-location history of
    accesses with enough context to reconstruct both sides of a race.
    We model that cost profile faithfully rather than clone the tool:
    every shadow granule holds a FIFO window of recent accesses, each
    carrying a {e full vector-clock snapshot} and the thread's lockset
    — which is exactly why this detector uses several times the memory
    of the epoch-based FastTrack family — and a race is reported when
    two accesses from different threads, at least one a write, are
    neither happens-before ordered nor protected by a common lock.

    Reports are deduplicated per instruction pair (location label
    pair), mimicking Inspector's reporting, in addition to the
    first-race-per-address rule of the shared collector. *)

open Dgrace_events

val create :
  ?granularity:int ->
  ?history:int ->
  ?suppression:Suppression.t ->
  unit ->
  Detector.t
(** [history] is the per-granule access-window length (default 2). *)
