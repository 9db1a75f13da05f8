open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow

type cell = {
  rvc : Vector_clock.t;
  wvc : Vector_clock.t;
  mutable w_loc : string;
  mutable r_loc : string;
  mutable racy : bool;
}

let cell_bytes c =
  8 * (6 + Vector_clock.heap_words c.rvc + Vector_clock.heap_words c.wvc)

type state = {
  granularity : int;
  env : Vc_env.t;
  shadow : cell Shadow_table.t;
  bitmaps : Thread_bitmaps.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
}

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell =
  {
    rvc = Vector_clock.create ();
    wvc = Vector_clock.create ();
    w_loc = "";
    r_loc = "";
    racy = false;
  }

let cell_at st a =
  let c = Shadow_table.find st.shadow a ~absent:no_cell in
  if c != no_cell then c
  else
    let c =
      {
        rvc = Vector_clock.create ();
        wvc = Vector_clock.create ();
        w_loc = "";
        r_loc = "";
        racy = false;
      }
    in
    Accounting.vc_created st.account;
    Accounting.bind_locations st.account 1;
    Accounting.add_vc st.account (cell_bytes c);
    Shadow_table.set st.shadow a c;
    c

(* Vector-clock growth is accounted by re-measuring around mutations. *)
let with_resize st c f =
  let before = cell_bytes c in
  f ();
  let after = cell_bytes c in
  if after <> before then Accounting.add_vc st.account (after - before)

let previous_write c ~against : Report.endpoint =
  let tid = Race_info.conflicting_tid c.wvc ~against in
  let tid = max tid 0 in
  { tid; kind = Event.Write; clock = Vector_clock.get c.wvc tid; loc = c.w_loc }

let previous_read c ~against : Report.endpoint =
  let tid = Race_info.conflicting_tid c.rvc ~against in
  let tid = max tid 0 in
  { tid; kind = Event.Read; clock = Vector_clock.get c.rvc tid; loc = c.r_loc }

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let bm = Thread_bitmaps.get st.bitmaps tid in
  if Epoch_bitmap.test_range bm ~write ~lo:addr ~hi:(addr + size - 1) then st.stats.same_epoch <- st.stats.same_epoch + 1
  else begin
    let tvc = Vc_env.clock_of st.env tid in
    let clock = Vector_clock.get tvc tid in
    let g = st.granularity in
    let lo = addr land lnot (g - 1) in
    let hi = (addr + size + g - 1) land lnot (g - 1) in
    let reported = ref false in
    let race c ~previous ~slot_lo =
      c.racy <- true;
      if not !reported then begin
        reported := true;
        let current = Race_info.current ~tid ~kind ~clock ~loc in
        let r =
          Report.make ~addr:slot_lo ~size:g ~current ~previous
            ~granule:(slot_lo, slot_lo + g) ()
        in
        ignore (Report.Collector.add st.collector r : bool)
      end
    in
    let a = ref lo in
    while !a < hi do
      let slot_lo = !a in
      let c = cell_at st slot_lo in
      if not c.racy then
        if write then begin
          if not (Vector_clock.leq c.wvc tvc) then
            race c ~previous:(previous_write c ~against:tvc) ~slot_lo
          else if not (Vector_clock.leq c.rvc tvc) then
            race c ~previous:(previous_read c ~against:tvc) ~slot_lo
          else
            with_resize st c (fun () ->
                Vector_clock.set c.wvc tid clock;
                c.w_loc <- loc)
        end
        else begin
          if not (Vector_clock.leq c.wvc tvc) then
            race c ~previous:(previous_write c ~against:tvc) ~slot_lo
          else
            with_resize st c (fun () ->
                Vector_clock.set c.rvc tid clock;
                c.r_loc <- loc)
        end;
      a := !a + g
    done;
    Epoch_bitmap.mark bm ~write ~lo:addr ~hi:(addr + size)
  end

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  Shadow_table.iter_range
    (fun _ _ c ->
      Accounting.vc_freed st.account;
      Accounting.add_vc st.account (-cell_bytes c))
    st.shadow ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.shadow ~lo:addr ~hi:(addr + size)

let create ?(granularity = 1) ?(suppression = Suppression.empty) () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Djit.create: granularity must be a power of two";
  let account = Accounting.create () in
  let st =
    {
      granularity;
      env = Vc_env.create ();
      shadow =
        Shadow_table.create ~mode:(Shadow_table.Fixed_bytes granularity) ~account ();
      bitmaps = Thread_bitmaps.create ~account;
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
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
  let metrics = Dgrace_obs.Metrics.create () in
  let finish () =
    let module Metrics = Dgrace_obs.Metrics in
    let g name v = Metrics.set (Metrics.gauge metrics name) v in
    let s : Shadow_table.stats = Shadow_table.stats st.shadow in
    g "shadow.pages_live" s.pages_live;
    g "shadow.pages_pooled" s.pages_pooled;
    g "shadow.page_allocs" s.page_allocs;
    g "shadow.page_recycles" s.page_recycles;
    g "shadow.index_lookups" s.lookups;
    g "shadow.mru_hits" s.mru_hits;
    g "shadow.dir_bytes" s.dir_bytes
  in
  {
    Detector.name = (if granularity = 1 then "djit-byte" else Printf.sprintf "djit-%dB" granularity);
    on_event;
    process_batch = None;
    finish;
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics;
    transitions = None;
    degrade = None;
  }
