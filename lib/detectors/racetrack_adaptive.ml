open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow

type cell = {
  mutable w : Epoch.t;
  mutable w_loc : string;
  mutable r : Read_state.t;
  mutable r_loc : string;
  mutable racy : bool;
}

let cell_cost = 8 * 8

type state = {
  region : int;
  intern : Vc_intern.t;
  env : Vc_env.t;
  coarse : (int, cell) Hashtbl.t;  (* region base -> one clock *)
  refined : (int, unit) Hashtbl.t;  (* regions switched to fine mode *)
  fine : cell Shadow_table.t;  (* word-granule cells of refined regions *)
  bitmaps : Thread_bitmaps.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
}

let fresh_cell st n_locs =
  Accounting.vc_created st.account;
  Accounting.bind_locations st.account n_locs;
  Accounting.add_vc st.account cell_cost;
  { w = Epoch.none; w_loc = ""; r = Read_state.empty; r_loc = ""; racy = false }

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell =
  { w = Epoch.none; w_loc = ""; r = Read_state.empty; r_loc = ""; racy = false }

let retire_cell st c =
  Accounting.vc_freed st.account;
  Accounting.add_vc st.account (-cell_cost);
  Read_state.release c.r;
  c.r <- Read_state.empty

(* FastTrack rules on one cell; [previous] reports the conflicting
   access when the result is [true]. *)
let ft_check_and_update st c ~write ~tid ~tvc ~here ~loc ~on_race =
  if write then begin
    if not (Epoch.equal c.w here) then
      if not (Vector_clock.epoch_leq c.w tvc) then
        on_race (Race_info.of_write ~w:c.w ~loc:c.w_loc)
      else if not (Read_state.leq c.r tvc) then
        on_race (Race_info.of_read_state c.r ~against:tvc ~loc:c.r_loc)
      else begin
        c.w <- here;
        c.w_loc <- loc;
        if Read_state.is_vc c.r then begin
          Read_state.release c.r;
          c.r <- Read_state.empty
        end
      end
  end
  else if not (Read_state.same_epoch c.r here) then begin
    if not (Vector_clock.epoch_leq c.w tvc) then
      on_race (Race_info.of_write ~w:c.w ~loc:c.w_loc)
    else begin
      c.r <- Read_state.update ~intern:st.intern c.r ~tid ~tvc;
      c.r_loc <- loc
    end
  end

let refine st region_base =
  (match Hashtbl.find_opt st.coarse region_base with
   | Some c ->
     Hashtbl.remove st.coarse region_base;
     retire_cell st c;
     Accounting.add_hash st.account (-24)
   | None -> ());
  Hashtbl.replace st.refined region_base ();
  Accounting.add_hash st.account 24

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let bm = Thread_bitmaps.get st.bitmaps tid in
  if Epoch_bitmap.test_range bm ~write ~lo:addr ~hi:(addr + size - 1) then st.stats.same_epoch <- st.stats.same_epoch + 1
  else begin
    let tvc = Vc_env.clock_of st.env tid in
    let here = Epoch.make ~tid ~clock:(Vector_clock.get tvc tid) in
    let reported = ref false in
    let a = ref (addr land lnot (st.region - 1)) in
    let hi = addr + size in
    while !a < hi do
      let region_base = !a in
      if Hashtbl.mem st.refined region_base then begin
        (* fine mode: word-granule cells; a race here recurred after
           refinement and is reported *)
        let f = ref (max region_base (addr land lnot 3)) in
        let fhi = min hi (region_base + st.region) in
        while !f < fhi do
          let slot = !f in
          let c =
            let c = Shadow_table.find st.fine slot ~absent:no_cell in
            if c != no_cell then c
            else begin
              let c = fresh_cell st 4 in
              Shadow_table.set st.fine slot c;
              c
            end
          in
          if not c.racy then
            ft_check_and_update st c ~write ~tid ~tvc ~here ~loc
              ~on_race:(fun previous ->
                c.racy <- true;
                if not !reported then begin
                  reported := true;
                  let current =
                    Race_info.current ~tid ~kind ~clock:(Epoch.clock here) ~loc
                  in
                  let r =
                    Report.make ~addr:slot ~size:4 ~current ~previous
                      ~granule:(slot, slot + 4) ()
                  in
                  ignore (Report.Collector.add st.collector r : bool)
                end);
          f := !f + 4
        done
      end
      else begin
        (* coarse mode: one clock for the whole region; a potential
           race refines the region instead of reporting *)
        let c =
          match Hashtbl.find_opt st.coarse region_base with
          | Some c -> c
          | None ->
            let c = fresh_cell st st.region in
            Hashtbl.replace st.coarse region_base c;
            Accounting.add_hash st.account 24;
            c
        in
        ft_check_and_update st c ~write ~tid ~tvc ~here ~loc
          ~on_race:(fun _previous -> refine st region_base)
      end;
      a := region_base + st.region
    done;
    Epoch_bitmap.mark bm ~write ~lo:addr ~hi:(addr + size)
  end

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  let a = ref (addr land lnot (st.region - 1)) in
  while !a < addr + size do
    (match Hashtbl.find_opt st.coarse !a with
     | Some c ->
       Hashtbl.remove st.coarse !a;
       retire_cell st c;
       Accounting.add_hash st.account (-24)
     | None -> ());
    a := !a + st.region
  done;
  Shadow_table.iter_range
    (fun _ _ c -> retire_cell st c)
    st.fine ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.fine ~lo:addr ~hi:(addr + size)

let create ?(region = 64) ?(suppression = Suppression.empty) () =
  if region < 4 || region land (region - 1) <> 0 then
    invalid_arg "Racetrack_adaptive.create: region must be a power of two >= 4";
  let account = Accounting.create () in
  let intern =
    Vc_intern.create
      ~on_bytes:(fun d ->
        Accounting.add_vc account d;
        Accounting.add_interned account d)
      ()
  in
  let st =
    {
      region;
      intern;
      env = Vc_env.create ();
      coarse = Hashtbl.create 256;
      refined = Hashtbl.create 64;
      fine = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) ~account ();
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
  {
    Detector.name = "racetrack-adaptive";
    on_event;
    process_batch = None;
    finish = (fun () -> Vclock_obs.publish metrics st.intern);
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics;
    transitions = None;
    degrade = None;
  }
