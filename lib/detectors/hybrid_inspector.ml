open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Iset = Lock_tracker.Iset

type entry = {
  etid : int;
  write : bool;
  clock : int;
  evc : Vc_intern.snap;  (* interned full snapshot — the memory cost *)
  locks : Iset.t;
  eloc : string;
}

(* the snapshot's own bytes are accounted by the arena (entries between
   two syncs all share one snapshot), so only the entry record and the
   lock set are charged here *)
let entry_bytes e = 8 * (8 + (3 * Iset.cardinal e.locks))

type cell = { mutable entries : entry list; mutable racy : bool }
(* newest first, bounded length *)

let cell_base_bytes = 8 * 4

type state = {
  granularity : int;
  history : int;
  intern : Vc_intern.t;
  env : Vc_env.t;
  locks : Lock_tracker.t;
  shadow : cell Shadow_table.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
  pair_seen : (string * string, unit) Hashtbl.t;
}

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell = { entries = []; racy = false }

let cell_at st a =
  let c = Shadow_table.find st.shadow a ~absent:no_cell in
  if c != no_cell then c
  else
    let c = { entries = []; racy = false } in
    Accounting.vc_created st.account;
    Accounting.bind_locations st.account st.granularity;
    Accounting.add_vc st.account cell_base_bytes;
    Shadow_table.set st.shadow a c;
    c

let races_with ~tid ~write ~tvc ~held e =
  e.etid <> tid
  && (write || e.write)
  && (not (Vc_intern.leq_clock e.evc tvc))
  && Iset.is_empty (Iset.inter e.locks held)

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let tvc = Vc_env.clock_of st.env tid in
  let clock = Vector_clock.get tvc tid in
  let held = Lock_tracker.held st.locks tid in
  let g = st.granularity in
  let lo = addr land lnot (g - 1) in
  let hi = (addr + size + g - 1) land lnot (g - 1) in
  let a = ref lo in
  while !a < hi do
    let granule = !a in
    let c = cell_at st granule in
    let same_epoch =
      match c.entries with
      | e :: _ -> e.etid = tid && e.clock = clock && e.write = write
      | [] -> false
    in
    if same_epoch then st.stats.same_epoch <- st.stats.same_epoch + 1
    else begin
      if not c.racy then begin
        match List.find_opt (races_with ~tid ~write ~tvc ~held) c.entries with
        | Some e ->
          c.racy <- true;
          let pair = (e.eloc, loc) in
          if not (Hashtbl.mem st.pair_seen pair) then begin
            Hashtbl.replace st.pair_seen pair ();
            let current : Report.endpoint = { tid; kind; clock; loc } in
            let previous : Report.endpoint =
              {
                tid = e.etid;
                kind = (if e.write then Event.Write else Event.Read);
                clock = e.clock;
                loc = e.eloc;
              }
            in
            let r =
              Report.make ~addr:granule ~size:g ~current ~previous
                ~granule:(granule, granule + g) ()
            in
            ignore (Report.Collector.add st.collector r : bool)
          end
        | None -> ()
      end;
      let e =
        {
          etid = tid;
          write;
          clock;
          evc = Vc_intern.intern st.intern tvc;
          locks = held;
          eloc = loc;
        }
      in
      Accounting.add_vc st.account (entry_bytes e);
      let entries = e :: c.entries in
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: tl ->
          if n = 1 then begin
            (* evicting the tail *)
            List.iter
              (fun d ->
                Vc_intern.release d.evc;
                Accounting.add_vc st.account (-entry_bytes d))
              tl;
            [ x ]
          end
          else x :: take (n - 1) tl
      in
      c.entries <- take st.history entries
    end;
    a := !a + g
  done

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  Shadow_table.iter_range
    (fun _ _ c ->
      Accounting.vc_freed st.account;
      List.iter (fun e -> Vc_intern.release e.evc) c.entries;
      Accounting.add_vc st.account
        (-(cell_base_bytes
           + List.fold_left (fun acc e -> acc + entry_bytes e) 0 c.entries));
      c.entries <- [])
    st.shadow ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.shadow ~lo:addr ~hi:(addr + size)

let create ?(granularity = 4) ?(history = 2)
    ?(suppression = Suppression.empty) () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Hybrid_inspector.create: granularity must be a power of two";
  if history < 1 then invalid_arg "Hybrid_inspector.create: empty history";
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
      granularity;
      history;
      intern;
      env = Vc_env.create ();
      locks = Lock_tracker.create ();
      shadow =
        Shadow_table.create ~mode:(Shadow_table.Fixed_bytes granularity) ~account ();
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
      pair_seen = Hashtbl.create 64;
    }
  in
  let on_event ev =
    if Vc_env.handle st.env ev ~on_boundary:(fun _ -> ()) then begin
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      Lock_tracker.handle st.locks ev
    end
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
    Detector.name = "inspector-hybrid";
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
