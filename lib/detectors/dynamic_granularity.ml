open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Metrics = Dgrace_obs.Metrics
module State_matrix = Dgrace_obs.State_matrix

(* Hot-path convention: integer-only [min]/[max], so a polymorphic
   comparison (a C call through [compare_val]) cannot creep in. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* A cell is one vector clock shared by the locations in [lo, hi).
   Cells live in one plane only (read or write); the dormant history
   field of the other plane stays at its initial value.  [refs] counts
   the address-bytes whose shadow slot points at this cell: splits,
   merges and frees keep it in step, and [refs = hi - lo] means the
   covered range has no holes. *)
type cell = {
  mutable lo : int;
  mutable hi : int;
  mutable refs : int;
  mutable cstate : Share_state.t;
  mutable born : Epoch.t;
  mutable w : Epoch.t;
  mutable r : Read_state.t;
  mutable loc : int;  (* location id in the detector's table *)
  mutable evidence : int;
      (* §VII extension: consecutive steady-state accesses whose clock
         matched a settled neighbour's; reaching the threshold re-opens
         the sharing decision *)
}

(* header + 8 fields + the stored access location pointer *)
let cell_cost = 8 * 10

(* The [absent] sentinel of every shadow lookup: never stored in a
   plane, never mutated, only compared physically. *)
let no_cell =
  {
    lo = 0;
    hi = 0;
    refs = 0;
    cstate = Share_state.Race;
    born = Epoch.none;
    w = Epoch.none;
    r = Read_state.empty;
    loc = Loc_table.empty;
    evidence = 0;
  }

(* Clock sharing is confined to aligned [share_granule]-byte lines of
   the address space: a sharing decision never inspects state across a
   line, so the detector's verdict for a line depends only on the
   accesses that touch it (plus the globally-ordered sync events),
   so an address-partitioned replay sees the sequential verdicts.  The
   line is far wider than any neighbour scan ([Shadow_table] looks at
   most one 128-byte block away), so in practice it only suppresses
   the rare coalescing attempt that straddles a 4 KiB boundary. *)
let share_granule_bits = 12
let share_granule = 1 lsl share_granule_bits
let same_granule a b = a lsr share_granule_bits = b lsr share_granule_bits

(* Would merging ranges [lo1, hi1) and [lo2, hi2) stay inside one
   share line?  (A cell created by a single line-straddling access may
   itself span a line; such a cell never coalesces further.) *)
let merge_within_granule ~lo1 ~hi1 ~lo2 ~hi2 =
  same_granule (min lo1 lo2) (max hi1 hi2 - 1)

type state = {
  sharing : bool;  (* false = the paper's byte detector: footprint
                      locations, no clock sharing at all *)
  init_state : bool;
  init_sharing : bool;
  reshare_after : int;  (* 0 = off; k>0 = the §VII "more dynamic"
                           extension: a Private cell whose clock has
                           matched a settled neighbour's on k
                           consecutive analysed accesses merges *)
  write_guided_reads : bool;
      (* §VII extension: a read location with no read history of its
         own may join a neighbour whose write clocks it already shares *)
  intern : Vc_intern.t;  (* read-shared clock snapshots live here *)
  env : Vc_env.t;
  rplane : cell Shadow_table.t;
  wplane : cell Shadow_table.t;
  mutable bitmaps_on : bool;
      (* flipped off by the first degradation stage: every access then
         takes the slow path, but the bitmap bytes are gone for good *)
  bitmaps : Thread_bitmaps.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
  mutable locs : Loc_table.t;  (* what the cells' location ids mean *)
  (* telemetry: the sharing-state transition matrix plus direct-held
     instruments, so each hot-path update is one integer store *)
  metrics : Metrics.t;
  transitions : State_matrix.t;
  m_analysed : Metrics.counter;  (* accesses that left the fast path *)
  m_epoch_cmp : Metrics.counter;  (* O(1) epoch comparisons *)
  m_vc_op : Metrics.counter;  (* full vector-clock reads/joins *)
  m_decisions : Metrics.counter;
  m_dec_shared : Metrics.counter;
  m_dec_private : Metrics.counter;
  m_first_cells : Metrics.counter;  (* cell lifetimes begun *)
  m_splits : Metrics.counter;  (* extra lifetimes begun by splits *)
  m_adopted : Metrics.counter;  (* lifetimes begun by joining a region *)
  h_shared : Metrics.histogram;  (* region bytes at shared decisions *)
  h_private : Metrics.histogram;  (* region bytes at private decisions *)
  m_degrade : Metrics.counter;  (* degradation passes requested *)
  m_degrade_bitmap : Metrics.counter;  (* bitmap bytes freed *)
  m_degrade_merged : Metrics.counter;  (* cells force-coarsened away *)
  m_degrade_reads : Metrics.counter;  (* read VCs collapsed *)
}

(* Matrix row/column 0 is the virtual pre-first-access state; the
   Share_state values follow in [Share_state.index] order. *)
let matrix_states = Array.append [| "start" |] Share_state.names
let start_index = 0
let state_index s = 1 + Share_state.index s

let[@inline] decided st ~shared ~bytes =
  Metrics.incr st.m_decisions;
  if shared then begin
    Metrics.incr st.m_dec_shared;
    Metrics.observe st.h_shared bytes
  end
  else begin
    Metrics.incr st.m_dec_private;
    Metrics.observe st.h_private bytes
  end

let plane st ~write = if write then st.wplane else st.rplane

let fresh_cell st ~lo ~hi ~born ~state =
  Accounting.vc_created st.account;
  Accounting.bind_locations st.account (hi - lo);
  Accounting.add_vc st.account cell_cost;
  {
    lo;
    hi;
    refs = hi - lo;
    cstate = state;
    born;
    w = Epoch.none;
    r = Read_state.empty;
    loc = Loc_table.empty;
    evidence = 0;
  }

let retire st c =
  Accounting.vc_freed st.account;
  Accounting.add_vc st.account (-cell_cost);
  (* snapshot bytes are accounted by the arena on the last release;
     clearing [c.r] keeps a double retire (possible when a free handler
     drops the refcount below zero twice) from double-releasing *)
  Read_state.release c.r;
  c.r <- Read_state.empty

let hist_equal ~write a b =
  if write then Epoch.equal a.w b.w else Read_state.equal a.r b.r

let[@inline] update_hist st ~write c ~tid ~tvc ~here ~loc =
  if write then c.w <- here
  else begin
    c.r <- Read_state.update ~intern:st.intern c.r ~tid ~tvc;
    if Read_state.is_vc c.r then Metrics.incr st.m_vc_op
    else Metrics.incr st.m_epoch_cmp
  end;
  c.loc <- loc

(* Race check against the opposite plane over the accessed sub-range,
   walking cell groups so a shared clock is tested once, not per slot.
   This and the other per-access walkers are top-level functions: a
   local closure would be allocated on every analysed access. *)
let rec find_conflict st pl ~write ~sub_hi ~tvc a =
  if a >= sub_hi then None
  else begin
    let c = Shadow_table.group pl a ~hi:sub_hi ~absent:no_cell in
    let ghi = Shadow_table.found_hi pl in
    if c == no_cell || c.cstate = Share_state.Race then
      find_conflict st pl ~write ~sub_hi ~tvc ghi
    else begin
      if write && Read_state.is_vc c.r then Metrics.incr st.m_vc_op
      else Metrics.incr st.m_epoch_cmp;
      if write then
        if not (Read_state.leq c.r tvc) then
          Some
            (Race_info.of_read_state c.r ~against:tvc
               ~loc:(Loc_table.name st.locs c.loc))
        else find_conflict st pl ~write ~sub_hi ~tvc ghi
      else if not (Vector_clock.epoch_leq c.w tvc) then
        Some (Race_info.of_write ~w:c.w ~loc:(Loc_table.name st.locs c.loc))
      else find_conflict st pl ~write ~sub_hi ~tvc ghi
    end
  end

let[@inline] check_races st ~write ~cell ~sub_lo ~sub_hi ~tvc =
  if write then Metrics.incr st.m_epoch_cmp;
  if write && not (Vector_clock.epoch_leq cell.w tvc) then
    Some (Race_info.of_write ~w:cell.w ~loc:(Loc_table.name st.locs cell.loc))
  else
    find_conflict st
      (if write then st.rplane else st.wplane)
      ~write ~sub_hi ~tvc sub_lo

(* A write that passed the read-write check dominates the reads of
   every read cell fully inside the written range: collapse them back
   to the cheap representation (FastTrack's WRITE SHARED rule). *)
let rec reset_contained_reads st ~sub_lo ~sub_hi a =
  if a < sub_hi then begin
    let rc = Shadow_table.group st.rplane a ~hi:sub_hi ~absent:no_cell in
    let ghi = Shadow_table.found_hi st.rplane in
    if
      rc != no_cell
      && rc.cstate <> Share_state.Race
      && rc.lo >= sub_lo && rc.hi <= sub_hi
    then begin
      Read_state.release rc.r;
      rc.r <- Read_state.empty
    end;
    reset_contained_reads st ~sub_lo ~sub_hi ghi
  end

let must_step st c stimulus =
  match Share_state.step c.cstate stimulus with
  | Some s ->
    State_matrix.record st.transitions ~from_:(state_index c.cstate)
      ~to_:(state_index s);
    c.cstate <- s
  | None -> assert false

(* The sharing group dissolves on a race: every member location —
   approximated as each maximal contiguous run of slots bound to the
   cell — is reported (how the paper's dynamic detector can report
   locations the fixed-granularity detectors do not) and the cell
   parks in [Race]. *)
let dissolve_and_report st ~write c ~current ~previous =
  let pl = plane st ~write in
  let run_lo = ref (-1) in
  let flush run_hi =
    if !run_lo >= 0 then begin
      let r =
        Report.make ~addr:!run_lo ~size:(run_hi - !run_lo) ~current ~previous
          ~granule:(c.lo, c.hi) ()
      in
      ignore (Report.Collector.add st.collector r : bool);
      run_lo := -1
    end
  in
  let a = ref c.lo in
  while !a < c.hi do
    let slo, shi = Shadow_table.slot_bounds pl !a in
    if Shadow_table.find pl !a ~absent:no_cell == c then begin
      if !run_lo < 0 then run_lo := slo
    end
    else flush slo;
    a := shi
  done;
  flush c.hi;
  must_step st c Share_state.Race_on_l

(* Merge the (contiguous, hole-free) cell [l] into neighbour [nc]. *)
let absorb st ~write ~into:nc l ~stimulus =
  let pl = plane st ~write in
  Shadow_table.set_range pl ~lo:l.lo ~hi:l.hi nc;
  nc.lo <- min nc.lo l.lo;
  nc.hi <- max nc.hi l.hi;
  nc.refs <- nc.refs + l.refs;
  must_step st nc stimulus;
  Accounting.bind_locations st.account l.refs;
  retire st l

(* First access to the uncovered range [ulo, uhi): create the location
   and attempt the (temporary, Init-state) sharing of §III.A — or, in
   the no-Init-state ablation, make the single firm decision now.  The
   new location's history would be exactly "this epoch", so neighbour
   eligibility is checked before allocating anything and a matching
   neighbour is extended in place. *)
let eligible st ~write ~ulo ~uhi ~here nc =
  nc != no_cell
  && merge_within_granule ~lo1:nc.lo ~hi1:nc.hi ~lo2:ulo ~hi2:uhi
  && (if write then Epoch.equal nc.w here else Read_state.same_epoch nc.r here)
  &&
  if st.init_state then Share_state.is_init nc.cstate
  else Share_state.is_settled nc.cstate

let first_access st ~write ~ulo ~uhi ~here ~tid ~tvc ~loc =
  let pl = plane st ~write in
  let candidate =
    if not (st.sharing && ((not st.init_state) || st.init_sharing)) then
      no_cell
    else begin
      let nc = Shadow_table.prev_neighbor pl ulo ~absent:no_cell in
      if eligible st ~write ~ulo ~uhi ~here nc then nc
      else
        let nc = Shadow_table.next_neighbor pl (uhi - 1) ~absent:no_cell in
        if eligible st ~write ~ulo ~uhi ~here nc then nc else no_cell
    end
  in
  if candidate != no_cell then begin
    let nc = candidate in
    Shadow_table.set_range pl ~lo:ulo ~hi:uhi nc;
    nc.lo <- min nc.lo ulo;
    nc.hi <- max nc.hi uhi;
    nc.refs <- nc.refs + (uhi - ulo);
    (* the cell's label stays that of its creating access: a shared
       label is approximate either way, and overwriting it would let a
       suppressed runtime label mask an application race *)
    must_step st nc
      (if st.init_state then Share_state.Init_neighbor_matched
       else Share_state.Adopted_by_neighbor);
    Metrics.incr st.m_adopted;
    Accounting.bind_locations st.account (uhi - ulo);
    decided st ~shared:true ~bytes:(nc.hi - nc.lo);
    nc
  end
  else begin
    let state =
      if st.init_state then Share_state.Init_private else Share_state.Private
    in
    let l = fresh_cell st ~lo:ulo ~hi:uhi ~born:here ~state in
    State_matrix.record st.transitions ~from_:start_index
      ~to_:(state_index state);
    Metrics.incr st.m_first_cells;
    decided st ~shared:false ~bytes:(uhi - ulo);
    update_hist st ~write l ~tid ~tvc ~here ~loc;
    Shadow_table.set_range pl ~lo:ulo ~hi:uhi l;
    l
  end

(* Split [sub_lo, sub_hi) out of the Init cell [c] so the second-epoch
   decision applies to exactly the accessed location. *)
let split_off st ~write c ~sub_lo ~sub_hi =
  if c.lo = sub_lo && c.hi = sub_hi && c.refs = sub_hi - sub_lo then c
  else begin
    Metrics.incr st.m_splits;
    let l = fresh_cell st ~lo:sub_lo ~hi:sub_hi ~born:c.born ~state:c.cstate in
    l.w <- c.w;
    (* an O(1) share of a read-shared snapshot instead of a deep copy:
       both halves keep observing the same clock value *)
    l.r <- Read_state.retain c.r;
    l.loc <- c.loc;
    Shadow_table.set_range (plane st ~write) ~lo:sub_lo ~hi:sub_hi l;
    c.refs <- c.refs - (sub_hi - sub_lo);
    if c.lo = sub_lo then c.lo <- sub_hi;
    if c.hi = sub_hi then c.hi <- sub_lo;
    if c.refs <= 0 then retire st c;
    l
  end

(* The endpoint of the access being analysed; built on the race path
   only. *)
let current st ~tid ~write ~here ~loc =
  Race_info.current ~tid
    ~kind:(if write then Event.Write else Event.Read)
    ~clock:(Epoch.clock here) ~loc:(Loc_table.name st.locs loc)

(* Reads may share when the write plane is already shared across the
   boundary and the neighbour has no conflicting read info. *)
let write_guided st ~write ~sub_lo a =
  (not write) && st.write_guided_reads
  &&
  let wa = Shadow_table.find st.wplane a ~absent:no_cell in
  wa != no_cell && wa == Shadow_table.find st.wplane sub_lo ~absent:no_cell

(* The settled neighbour at [a] that the freshly split cell [l] may
   join, or [no_cell]. *)
let neighbor_at st pl ~write l ~sub_lo ~sub_hi a =
  let nc = Shadow_table.find pl a ~absent:no_cell in
  if
    nc != no_cell && nc != l
    && merge_within_granule ~lo1:nc.lo ~hi1:nc.hi ~lo2:sub_lo ~hi2:sub_hi
    && Share_state.is_settled nc.cstate
    && (hist_equal ~write l nc
        || (write_guided st ~write ~sub_lo a && Read_state.is_empty nc.r))
  then nc
  else no_cell

(* Second-epoch access: split, race-check, then the firm sharing
   decision against the settled neighbours at the range boundaries. *)
let second_epoch st ~write c ~sub_lo ~sub_hi ~here ~tid ~tvc ~loc =
  let pl = plane st ~write in
  let l = split_off st ~write c ~sub_lo ~sub_hi in
  match check_races st ~write ~cell:l ~sub_lo ~sub_hi ~tvc with
  | Some previous ->
    dissolve_and_report st ~write l
      ~current:(current st ~tid ~write ~here ~loc)
      ~previous;
    l
  | None ->
    update_hist st ~write l ~tid ~tvc ~here ~loc;
    if write then reset_contained_reads st ~sub_lo ~sub_hi sub_lo;
    let candidate =
      if not st.sharing then no_cell
      else
        let nc = neighbor_at st pl ~write l ~sub_lo ~sub_hi (sub_lo - 1) in
        if nc != no_cell then nc
        else neighbor_at st pl ~write l ~sub_lo ~sub_hi sub_hi
    in
    if candidate != no_cell then begin
      let nc = candidate in
      absorb st ~write ~into:nc l ~stimulus:Share_state.Adopted_by_neighbor;
      decided st ~shared:true ~bytes:(nc.hi - nc.lo);
      nc
    end
    else begin
      must_step st l
        (Share_state.Second_epoch_access { matching_settled_neighbor = false });
      decided st ~shared:false ~bytes:(l.hi - l.lo);
      l
    end

(* §VII extension: after k consecutive clock matches with a settled
   neighbour, re-open the sharing decision for a Private cell. *)
let matching pl ~write c a =
  let nc = Shadow_table.find pl a ~absent:no_cell in
  if
    nc != no_cell && nc != c
    && merge_within_granule ~lo1:nc.lo ~hi1:nc.hi ~lo2:c.lo ~hi2:c.hi
    && Share_state.is_settled nc.cstate && hist_equal ~write c nc
  then nc
  else no_cell

let try_reshare st ~write c =
  if
    st.reshare_after > 0
    && c.cstate = Share_state.Private
    && c.refs = c.hi - c.lo
  then begin
    let pl = plane st ~write in
    let nc =
      let nc = matching pl ~write c (c.lo - 1) in
      if nc != no_cell then nc else matching pl ~write c c.hi
    in
    if nc != no_cell then begin
      c.evidence <- c.evidence + 1;
      if c.evidence >= st.reshare_after && nc.refs = nc.hi - nc.lo then begin
        absorb st ~write ~into:nc c ~stimulus:Share_state.Adopted_by_neighbor;
        decided st ~shared:true ~bytes:(nc.hi - nc.lo)
      end
    end
    else c.evidence <- 0
  end

(* Accesses after the firm decision: plain FastTrack on the cell. *)
let steady st ~write c ~sub_lo ~sub_hi ~here ~tid ~tvc ~loc =
  Metrics.incr st.m_epoch_cmp;
  let same_epoch =
    if write then Epoch.equal c.w here else Read_state.same_epoch c.r here
  in
  if not same_epoch then begin
    match check_races st ~write ~cell:c ~sub_lo ~sub_hi ~tvc with
    | Some previous ->
      dissolve_and_report st ~write c
        ~current:(current st ~tid ~write ~here ~loc)
        ~previous
    | None ->
      update_hist st ~write c ~tid ~tvc ~here ~loc;
      if write then reset_contained_reads st ~sub_lo ~sub_hi sub_lo;
      try_reshare st ~write c
  end

(* ------------------------------------------------------------------ *)
(* Graceful degradation under a shadow-memory budget: staged shedding,
   cheapest precision cost first (doc/resilience.md documents exactly
   what each stage gives up).  Driven by the engine through
   [Detector.degrade] whenever the run is over its budget. *)

(* Stage 1: drop the per-thread same-epoch bitmaps and stop
   maintaining them.  Costs only speed (every access now takes the
   analysed path); precision is untouched. *)
let shed_bitmaps st =
  if not st.bitmaps_on then false
  else begin
    st.bitmaps_on <- false;
    Metrics.add st.m_degrade_bitmap (Thread_bitmaps.shed st.bitmaps);
    true
  end

(* Stage 2: force-coarsen — merge adjacent settled hole-free cells
   whose histories are equal onto one shared clock, ignoring the usual
   evidence threshold.  Same race verdicts, fewer clocks. *)
let coarsen_plane st ~write =
  let pl = plane st ~write in
  let cells = Hashtbl.create 64 in
  Shadow_table.iter
    (fun _ _ c ->
      if Share_state.is_settled c.cstate && c.refs = c.hi - c.lo then
        Hashtbl.replace cells c.lo c)
    pl;
  let los =
    Hashtbl.fold (fun lo _ acc -> lo :: acc) cells [] |> List.sort compare
  in
  let merged = ref 0 in
  List.iter
    (fun lo ->
      match Hashtbl.find_opt cells lo with
      | None -> ()
      | Some c -> (
        (* the cell must still be live, hole-free and own its range *)
        if
          Shadow_table.find pl c.lo ~absent:no_cell == c
          && c.refs = c.hi - c.lo
        then begin
          let nc = Shadow_table.find pl (c.lo - 1) ~absent:no_cell in
          if
            nc != no_cell && nc != c
            && merge_within_granule ~lo1:nc.lo ~hi1:nc.hi ~lo2:c.lo ~hi2:c.hi
            && Share_state.is_settled nc.cstate
            && nc.refs = nc.hi - nc.lo && nc.hi = c.lo
            && hist_equal ~write c nc
          then begin
            Hashtbl.remove cells lo;
            absorb st ~write ~into:nc c
              ~stimulus:Share_state.Adopted_by_neighbor;
            incr merged
          end
        end))
    los;
  !merged

(* Stage 3: collapse read-shared vector clocks to "no reads".  This is
   the only stage that loses precision: a subsequent write can miss a
   read-write race whose read history was dropped. *)
let shed_read_vcs st =
  let dropped = ref 0 in
  Shadow_table.iter
    (fun _ _ c ->
      if Read_state.is_vc c.r then begin
        Read_state.release c.r;
        c.r <- Read_state.empty;
        incr dropped
      end)
    st.rplane;
  !dropped

let degrade st =
  Metrics.incr st.m_degrade;
  if shed_bitmaps st then true
  else begin
    let merged = coarsen_plane st ~write:false + coarsen_plane st ~write:true in
    Metrics.add st.m_degrade_merged merged;
    if merged > 0 then true
    else begin
      let dropped = shed_read_vcs st in
      Metrics.add st.m_degrade_reads dropped;
      dropped > 0
    end
  end

(* A settled hole-free cell is marked whole, so the rest of the granule
   rides the same-epoch fast path for this epoch; Init cells mark only
   the accessed group — they grow with every access and re-marking the
   growing range would be quadratic. *)
let[@inline] mark_covered st ~tid ~write c ~glo ~ghi =
  if st.bitmaps_on then begin
    let bm = Thread_bitmaps.get st.bitmaps tid in
    if Share_state.is_settled c.cstate && c.refs = c.hi - c.lo then
      Epoch_bitmap.mark bm ~write ~lo:c.lo ~hi:c.hi
    else Epoch_bitmap.mark bm ~write ~lo:glo ~hi:ghi
  end

(* The analysed path: one shadow group at a time over the access. *)
let analyse st ~tid ~write ~addr ~size ~loc =
  Metrics.incr st.m_analysed;
  let tvc = Vc_env.clock_of st.env tid in
  let here = Epoch.make ~tid ~clock:(Vector_clock.get tvc tid) in
  let pl = plane st ~write in
  (* sub-word accesses switch the indexing arrays they touch to byte
     slots (Fig. 4), so separately-protected packed fields never share
     a shadow granule *)
  Shadow_table.ensure_granularity pl ~addr ~size;
  let access_hi = addr + size in
  let a = ref addr in
  while !a < access_hi do
    let v = Shadow_table.group pl !a ~hi:access_hi ~absent:no_cell in
    let glo = Shadow_table.found_lo pl and ghi = Shadow_table.found_hi pl in
    if v == no_cell then begin
      let c = first_access st ~write ~ulo:glo ~uhi:ghi ~here ~tid ~tvc ~loc in
      (match check_races st ~write ~cell:c ~sub_lo:glo ~sub_hi:ghi ~tvc with
       | Some previous ->
         dissolve_and_report st ~write c
           ~current:(current st ~tid ~write ~here ~loc)
           ~previous
       | None ->
         if write then reset_contained_reads st ~sub_lo:glo ~sub_hi:ghi glo);
      mark_covered st ~tid ~write c ~glo ~ghi
    end
    else begin
      let c = v in
      let final =
        if c.cstate = Share_state.Race then c
        else if Share_state.is_init c.cstate then
          if Epoch.equal here c.born then c (* first-epoch continuation *)
          else
            second_epoch st ~write c ~sub_lo:glo ~sub_hi:ghi ~here ~tid ~tvc
              ~loc
        else begin
          steady st ~write c ~sub_lo:glo ~sub_hi:ghi ~here ~tid ~tvc ~loc;
          c
        end
      in
      mark_covered st ~tid ~write final ~glo ~ghi
    end;
    a := ghi
  done

(* One access event: count it, then the same-epoch test, then the
   analysed path on a miss. *)
let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  if
    st.bitmaps_on
    && Epoch_bitmap.test_range (Thread_bitmaps.get st.bitmaps tid) ~write ~lo:addr
         ~hi:(addr + size - 1)
  then st.stats.same_epoch <- st.stats.same_epoch + 1
  else analyse st ~tid ~write ~addr ~size ~loc:(Loc_table.intern st.locs loc)

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  let hi = addr + size in
  List.iter
    (fun pl ->
      Shadow_table.iter_range
        (fun slo shi c ->
          (* slot bounds may overhang the freed range (word slot cut
             by the boundary); only the intersection is unbound *)
          c.refs <- c.refs - (min hi shi - max addr slo);
          if c.refs <= 0 then retire st c)
        pl ~lo:addr ~hi;
      Shadow_table.remove_range pl ~lo:addr ~hi)
    [ st.rplane; st.wplane ]

let create ?(sharing = true) ?(init_state = true) ?(init_sharing = true)
    ?(reshare_after = 0) ?(write_guided_reads = false)
    ?(index = Shadow_table.Adaptive) ?name ?(suppression = Suppression.empty)
    () =
  let account = Accounting.create () in
  let metrics = Metrics.create () in
  let intern =
    Vc_intern.create
      ~on_bytes:(fun d ->
        Accounting.add_vc account d;
        Accounting.add_interned account d)
      ()
  in
  let st =
    {
      sharing;
      init_state;
      init_sharing;
      reshare_after;
      write_guided_reads;
      intern;
      env = Vc_env.create ();
      rplane = Shadow_table.create ~mode:index ~account ();
      wplane = Shadow_table.create ~mode:index ~account ();
      bitmaps_on = true;
      bitmaps = Thread_bitmaps.create ~account;
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
      locs = Loc_table.create ();
      metrics;
      transitions = State_matrix.create ~states:matrix_states;
      m_analysed = Metrics.counter metrics "accesses.analysed";
      m_epoch_cmp = Metrics.counter metrics "phase.epoch_compare";
      m_vc_op = Metrics.counter metrics "phase.vc_op";
      m_decisions = Metrics.counter metrics "sharing.decisions";
      m_dec_shared = Metrics.counter metrics "sharing.decisions.shared";
      m_dec_private = Metrics.counter metrics "sharing.decisions.private";
      m_first_cells = Metrics.counter metrics "cells.first_access";
      m_splits = Metrics.counter metrics "cells.split";
      m_adopted = Metrics.counter metrics "cells.adopted";
      h_shared = Metrics.histogram metrics "sharing.region_bytes.shared";
      h_private = Metrics.histogram metrics "sharing.region_bytes.private";
      m_degrade = Metrics.counter metrics "degrade.passes";
      m_degrade_bitmap = Metrics.counter metrics "degrade.bitmap_bytes_freed";
      m_degrade_merged = Metrics.counter metrics "degrade.cells_merged";
      m_degrade_reads = Metrics.counter metrics "degrade.read_vcs_dropped";
    }
  in
  let on_boundary tid =
    if st.bitmaps_on then Epoch_bitmap.reset (Thread_bitmaps.get st.bitmaps tid)
  in
  let on_event ev =
    if Vc_env.handle st.env ev ~on_boundary then
      st.stats.sync_ops <- st.stats.sync_ops + 1
    else
      match ev with
      | Event.Access { tid; kind; addr; size; loc } ->
        on_access st ~tid ~kind ~addr ~size ~loc
      | Event.Alloc _ -> st.stats.allocs <- st.stats.allocs + 1
      | Event.Free { addr; size; _ } -> on_free st ~addr ~size
      | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Join _
      | Event.Thread_exit _ -> ()
  in
  (* With the bitmaps shed every access takes the analysed path: a
     never-marked bitmap always misses. *)
  let no_bitmap = Epoch_bitmap.create () in
  let apply =
    Batch_apply.make ~stats:st.stats ~collector:st.collector ~env:st.env
      ~bitmap:(fun tid ->
        if st.bitmaps_on then Thread_bitmaps.get st.bitmaps tid else no_bitmap)
      ~on_boundary ~on_miss:(analyse st) ~on_free:(on_free st)
  in
  let process_batch b =
    st.locs <- Loc_table.adopt (Batch.locs b) ~own:st.locs;
    apply b
  in
  let name =
    match name with
    | Some n -> n
    | None -> (
      if not sharing then "ft-footprint"
      else if reshare_after > 0 || write_guided_reads then "ft-dynamic-ext"
      else
        match (init_state, init_sharing) with
        | true, true -> "ft-dynamic"
        | true, false -> "ft-dynamic-no-init-sharing"
        | false, _ -> "ft-dynamic-no-init-state")
  in
  (* Publish the shadow-index internals (page directory + bitmap
     recycling) as gauges once the run is over. *)
  let finish () =
    let g name v = Metrics.set (Metrics.gauge metrics name) v in
    let s1 : Shadow_table.stats = Shadow_table.stats st.rplane
    and s2 : Shadow_table.stats = Shadow_table.stats st.wplane in
    g "shadow.pages_live" (s1.pages_live + s2.pages_live);
    g "shadow.pages_pooled" (s1.pages_pooled + s2.pages_pooled);
    g "shadow.page_allocs" (s1.page_allocs + s2.page_allocs);
    g "shadow.page_recycles" (s1.page_recycles + s2.page_recycles);
    g "shadow.page_expansions" (s1.expansions + s2.expansions);
    g "shadow.index_lookups" (s1.lookups + s2.lookups);
    g "shadow.mru_hits" (s1.mru_hits + s2.mru_hits);
    g "shadow.dir_bytes" (s1.dir_bytes + s2.dir_bytes);
    let allocs, recycles = Thread_bitmaps.chunk_counts st.bitmaps in
    g "shadow.bitmap_chunk_allocs" allocs;
    g "shadow.bitmap_chunk_recycles" recycles;
    Vclock_obs.publish metrics st.intern
  in
  {
    Detector.name;
    on_event;
    process_batch = Some process_batch;
    finish;
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics = st.metrics;
    transitions = Some st.transitions;
    degrade = Some (fun () -> degrade st);
  }
