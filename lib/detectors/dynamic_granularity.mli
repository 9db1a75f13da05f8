(** The paper's contribution: FastTrack with dynamic detection
    granularity (§III, Figures 2 and 3).

    Detection starts at access granularity and grows by {e sharing} one
    vector clock among neighbouring locations whose clocks are equal.
    Read and write locations are shadowed in separate planes and only
    same-access-type clocks are shared.  Each shared clock is a {e
    cell} covering a contiguous address range; the sharing state
    machine ({!Share_state}) allows at most two sharing decisions per
    location lifetime:

    - on the first access a cell is created in an [Init] state and may
      be {e temporarily} shared with an [Init] neighbour carrying the
      same clock (the initialisation approximation);
    - on the second-epoch access the cell is split and the {e firm}
      decision is made: join a [Shared]/[Private] neighbour with an
      equal clock, or stay private;
    - a race dissolves the sharing group: every member is reported (the
      paper's x264 case) and parked in the absorbing [Race] state.

    Two ablation switches reproduce Table 5:
    [~init_sharing:false] disables the temporary first-epoch sharing
    (higher peak memory, same precision); [~init_state:false] removes
    the Init state entirely, making the single sharing decision at
    first access (the configuration the paper shows produces false
    alarms). *)

open Dgrace_events

val share_granule : int
(** Clock sharing never crosses an aligned [share_granule]-byte line
    (4096).  Every sharing site — first-access adoption, the firm
    second-epoch decision, resharing, and forced coarsening under a
    shadow budget — refuses a merge whose resulting span would straddle
    a line.  The detector's verdict for a line therefore depends only on
    the accesses that touch it plus the global sync-event order, so a
    replay partitioned by address line reports exactly the sequential
    races.  A cell
    created by a single line-straddling access may span two lines; such
    a cell simply never coalesces further. *)

val create :
  ?sharing:bool ->
  ?init_state:bool ->
  ?init_sharing:bool ->
  ?reshare_after:int ->
  ?write_guided_reads:bool ->
  ?index:Dgrace_shadow.Shadow_table.mode ->
  ?name:string ->
  ?suppression:Suppression.t ->
  unit ->
  Detector.t
(** The paper's tool is one implementation serving all three
    granularities (Fig. 3 keeps read and write locations separately in
    every mode); so is this one:

    - [~sharing:false] with the default adaptive index is the {e byte}
      detector: one clock per access footprint (split on partial
      overlap), byte-resolution indexing on sub-word accesses, no
      coalescing.  Its vector-clock population matches the word
      detector's on word-access programs, as in the paper's Table 3.
    - [~sharing:false ~index:(Fixed_bytes 4)] is the {e word} detector:
      the same machinery with addresses masked to word granules (hence
      the x264 masking and ffmpeg false alarm of §V.A).
    - the default is the full dynamic-granularity detector.

    The two §VII "future work" extensions are also implemented, both
    off by default: [~reshare_after:k] re-opens the sharing decision
    for a private clock after [k] consecutive steady-state accesses
    whose clock matched a settled neighbour's (granularity keeps
    adapting after the second epoch), and [~write_guided_reads:true]
    lets a read location with no read history of its own join a
    neighbour when their {e write} clocks are already shared.

    [process_batch] applies a batch in row order ({!Batch_apply}),
    testing the same-epoch bitmap inline, so its reports, statistics,
    accounting peaks and counters equal those of [on_event] over the
    same rows (doc/shadow.md).

    The per-layer split of the analysed path is counted, not timed:
    [accesses.analysed] (rows that missed the same-epoch bitmap),
    [phase.epoch_compare], [phase.vc_op], [sharing.decisions],
    [cells.first_access] / [cells.split] / [cells.adopted], and the
    [shadow.*] gauges published by [finish]. *)
