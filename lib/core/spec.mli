(** Detector specifications — the user-facing way to name a detection
    algorithm and configuration. *)

open Dgrace_events
open Dgrace_detectors

type t =
  | No_detection  (** run the program uninstrumented (base time/memory) *)
  | Fasttrack of { granularity : int }  (** fixed-granularity FastTrack *)
  | Djit of { granularity : int }  (** DJIT+ with full vector clocks *)
  | Dynamic of { init_state : bool; init_sharing : bool }
      (** the paper's dynamic-granularity detector; both flags [true]
          is the full algorithm, the other combinations are the
          Table 5 ablations *)
  | Dynamic_ext
      (** the paper's §VII future-work extensions on top of the
          dynamic detector: post-second-epoch resharing and
          write-guided read sharing *)
  | Drd  (** segment-based Valgrind-DRD-style detector *)
  | Inspector  (** hybrid Inspector-XE stand-in *)
  | Eraser  (** LockSet *)
  | Multirace  (** DJIT+ combined with LockSet (§VI) *)
  | Racetrack of { region : int }
      (** RaceTrack-style coarse-to-fine adaptive granularity (§VI) —
          misses one-shot races by design *)
  | Literace  (** LiteRace-style cold-region sampling (§VI) *)
  | Sampling of { rate : float; granule : bool }
      (** deterministic O(1)-cost sampling wrapper around the dynamic
          detector ({!Dgrace_detectors.Race_sampler}): [granule = true]
          samples whole share-granule lines — exact on the sampled
          subspace — [false] flips an independent per-access coin.
          doc/sampling.md *)

val byte : t
(** FastTrack at byte granularity. *)

val word : t
(** FastTrack at word granularity. *)

val dynamic : t
(** The full dynamic-granularity detector. *)

val name : t -> string
(** Stable short name, e.g. ["ft-dynamic"]. *)

val of_string : string -> (t, string) result
(** Parses the CLI names: [none], [byte], [word], [ft:<n>], [djit],
    [djit:<n>], [dynamic], [dynamic-no-init-sharing],
    [dynamic-no-init-state], [drd], [inspector], [eraser],
    [sample:<rate>], [sample-granule:<rate>] (rate a float in (0, 1];
    bare [sample]/[sample-granule] default to 0.1). *)

val all_names : string list
(** Accepted [of_string] inputs, for CLI help. *)

val to_detector : ?suppression:Suppression.t -> t -> Detector.t
(** Instantiate a fresh detector. *)
