open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Metrics = Dgrace_obs.Metrics

(* [w_loc]/[r_loc] are location ids of the detector's table *)
type cell = {
  mutable w : Epoch.t;
  mutable w_loc : int;
  mutable r : Read_state.t;
  mutable r_loc : int;
  mutable racy : bool;
}

(* cell record: header + 5 fields, plus the 8-byte "instruction pointer"
   a C implementation would store per plane *)
let cell_cost = 8 * (6 + 2)

type state = {
  granularity : int;
  intern : Vc_intern.t;
  env : Vc_env.t;
  shadow : cell Shadow_table.t;
  bitmaps : Thread_bitmaps.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
  mutable locs : Loc_table.t;  (* what the cells' location ids mean *)
  metrics : Metrics.t;
  m_analysed : Metrics.counter;  (* accesses that left the fast path *)
  m_epoch_cmp : Metrics.counter;  (* O(1) epoch comparisons *)
  m_vc_op : Metrics.counter;  (* full vector-clock reads/joins *)
}

let blank_cell () =
  { w = Epoch.none; w_loc = Loc_table.empty; r = Read_state.empty;
    r_loc = Loc_table.empty; racy = false }

let fresh_cell st =
  Accounting.vc_created st.account;
  Accounting.bind_locations st.account 1;
  Accounting.add_vc st.account cell_cost;
  blank_cell ()

let retire_cell st c =
  Accounting.vc_freed st.account;
  Accounting.add_vc st.account (-cell_cost);
  Read_state.release c.r;
  c.r <- Read_state.empty

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell = blank_cell ()

let cell_at st a =
  let c = Shadow_table.find st.shadow a ~absent:no_cell in
  if c != no_cell then c
  else
    let c = fresh_cell st in
    Shadow_table.set st.shadow a c;
    c

(* Update [c.r] for a read; snapshot bytes for the read-shared
   representation are accounted by the arena. *)
let record_read st c ~tid ~tvc ~loc =
  c.r <- Read_state.update ~intern:st.intern c.r ~tid ~tvc;
  if Read_state.is_vc c.r then Metrics.incr st.m_vc_op
  else Metrics.incr st.m_epoch_cmp;
  c.r_loc <- loc

let report_race st ~slot_lo ~current ~previous =
  let r =
    Report.make ~addr:slot_lo ~size:st.granularity ~current ~previous
      ~granule:(slot_lo, slot_lo + st.granularity) ()
  in
  ignore (Report.Collector.add st.collector r : bool)

(* The analysed path: every granule the access covers, then the
   access's marks in the thread's bitmap. *)
let analyse st ~tid ~write ~addr ~size ~loc =
  Metrics.incr st.m_analysed;
  let tvc = Vc_env.clock_of st.env tid in
  let here = Epoch.make ~tid ~clock:(Vector_clock.get tvc tid) in
  let g = st.granularity in
  let lo = addr land lnot (g - 1) in
  let hi = (addr + size + g - 1) land lnot (g - 1) in
  let reported = ref false in
  let race c ~previous ~slot_lo =
    c.racy <- true;
    if not !reported then begin
      reported := true;
      let current =
        Race_info.current ~tid
          ~kind:(if write then Event.Write else Event.Read)
          ~clock:(Epoch.clock here) ~loc:(Loc_table.name st.locs loc)
      in
      report_race st ~slot_lo ~current ~previous
    end
  in
  let a = ref lo in
  while !a < hi do
    let slot_lo = !a in
    let c = cell_at st slot_lo in
    if not c.racy then begin
      if write then begin
        if not (Epoch.equal c.w here) then begin
          Metrics.incr st.m_epoch_cmp;
          if Read_state.is_vc c.r then Metrics.incr st.m_vc_op;
          if not (Vector_clock.epoch_leq c.w tvc) then
            race c
              ~previous:
                (Race_info.of_write ~w:c.w ~loc:(Loc_table.name st.locs c.w_loc))
              ~slot_lo
          else if not (Read_state.leq c.r tvc) then
            race c
              ~previous:
                (Race_info.of_read_state c.r ~against:tvc
                   ~loc:(Loc_table.name st.locs c.r_loc))
              ~slot_lo;
          if not c.racy then begin
            c.w <- here;
            c.w_loc <- loc;
            (* a write ordered after all reads lets the read history
               collapse back to the cheap representation *)
            if Read_state.is_vc c.r then begin
              Read_state.release c.r;
              c.r <- Read_state.empty
            end
          end
        end
      end
      else if not (Read_state.same_epoch c.r here) then begin
        Metrics.incr st.m_epoch_cmp;
        if not (Vector_clock.epoch_leq c.w tvc) then
          race c
            ~previous:
              (Race_info.of_write ~w:c.w ~loc:(Loc_table.name st.locs c.w_loc))
            ~slot_lo
        else record_read st c ~tid ~tvc ~loc
      end
    end;
    a := !a + g
  done;
  Epoch_bitmap.mark (Thread_bitmaps.get st.bitmaps tid) ~write ~lo:addr
    ~hi:(addr + size)

(* One access event: count it, then the same-epoch test, then the
   analysed path on a miss. *)
let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  if
    Epoch_bitmap.test_range (Thread_bitmaps.get st.bitmaps tid) ~write ~lo:addr
      ~hi:(addr + size - 1)
  then st.stats.same_epoch <- st.stats.same_epoch + 1
  else analyse st ~tid ~write ~addr ~size ~loc:(Loc_table.intern st.locs loc)

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  Shadow_table.iter_range
    (fun _ _ c -> retire_cell st c)
    st.shadow ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.shadow ~lo:addr ~hi:(addr + size)

let create ?(granularity = 1) ?(suppression = Suppression.empty) () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Fasttrack.create: granularity must be a power of two";
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
      granularity;
      intern;
      env = Vc_env.create ();
      shadow =
        Shadow_table.create ~mode:(Shadow_table.Fixed_bytes granularity) ~account ();
      bitmaps = Thread_bitmaps.create ~account;
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
      locs = Loc_table.create ();
      metrics;
      m_analysed = Metrics.counter metrics "accesses.analysed";
      m_epoch_cmp = Metrics.counter metrics "phase.epoch_compare";
      m_vc_op = Metrics.counter metrics "phase.vc_op";
    }
  in
  let on_boundary tid = Epoch_bitmap.reset (Thread_bitmaps.get st.bitmaps tid) in
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
  let apply =
    Batch_apply.make ~stats:st.stats ~collector:st.collector ~env:st.env
      ~bitmap:(Thread_bitmaps.get st.bitmaps) ~on_boundary
      ~on_miss:(analyse st) ~on_free:(on_free st)
  in
  let process_batch b =
    st.locs <- Loc_table.adopt (Batch.locs b) ~own:st.locs;
    apply b
  in
  let finish () =
    let g name v = Metrics.set (Metrics.gauge metrics name) v in
    let s : Shadow_table.stats = Shadow_table.stats st.shadow in
    g "shadow.pages_live" s.pages_live;
    g "shadow.pages_pooled" s.pages_pooled;
    g "shadow.page_allocs" s.page_allocs;
    g "shadow.page_recycles" s.page_recycles;
    g "shadow.index_lookups" s.lookups;
    g "shadow.mru_hits" s.mru_hits;
    g "shadow.dir_bytes" s.dir_bytes;
    let allocs, recycles = Thread_bitmaps.chunk_counts st.bitmaps in
    g "shadow.bitmap_chunk_allocs" allocs;
    g "shadow.bitmap_chunk_recycles" recycles;
    Vclock_obs.publish metrics st.intern
  in
  {
    Detector.name =
      (if granularity = 1 then "ft-byte"
       else if granularity = 4 then "ft-word"
       else Printf.sprintf "ft-%dB" granularity);
    on_event;
    process_batch = Some process_batch;
    finish;
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics = st.metrics;
    transitions = None;
    degrade = None;
  }
