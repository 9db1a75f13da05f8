(** RaceTrack-style adaptive granularity (Yu, Rodeheffer & Chen, SOSP
    2005), the {e other} adaptive scheme discussed in the paper's §VI.

    RaceTrack starts detection at a coarse unit (an object) and refines
    to field granularity only when a potential race is detected, then
    reports only if the race recurs at the fine granularity.  The paper
    argues the idea "based on object references, is not applicable to
    C/C++ programs"; this detector maps it to addresses anyway — coarse
    regions of [region] bytes refined to access footprints on a
    potential race — precisely so the trade-off can be measured:

    - memory starts low (one clock per region);
    - a {e recurring} race is confirmed at fine granularity and
      reported;
    - a {e one-shot} race only triggers the refinement and is lost —
      the miss the paper's dynamic-granularity design avoids by going
      fine-to-coarse instead of coarse-to-fine.

    The hmmsearch workload (single final unprotected update) is the
    built-in demonstration: every happens-before detector in the suite
    finds its race, this one does not. *)

open Dgrace_events

val create :
  ?region:int ->
  ?suppression:Suppression.t ->
  unit ->
  Detector.t
(** [region] is the coarse detection unit in bytes (default 64; power
    of two). *)
