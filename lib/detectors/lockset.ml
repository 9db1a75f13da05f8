open Dgrace_events
open Dgrace_shadow
module Iset = Lock_tracker.Iset

type phase =
  | Virgin
  | Exclusive of int  (* owning thread; no discipline checks yet *)
  | Shared  (* read-shared by several threads *)
  | Shared_modified  (* written by several threads: discipline enforced *)

type cell = {
  mutable phase : phase;
  mutable candidates : Iset.t;
  mutable loc : string;
  mutable last_tid : int;
  mutable racy : bool;
}

let cell_bytes c = 8 * (7 + (3 * Iset.cardinal c.candidates))

type state = {
  granularity : int;
  locks : Lock_tracker.t;
  shadow : cell Shadow_table.t;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
}

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell =
  { phase = Virgin; candidates = Iset.empty; loc = ""; last_tid = -1; racy = false }

let cell_at st a =
  let c = Shadow_table.find st.shadow a ~absent:no_cell in
  if c != no_cell then c
  else
    let c =
      { phase = Virgin; candidates = Iset.empty; loc = ""; last_tid = -1; racy = false }
    in
    Accounting.vc_created st.account;
    Accounting.bind_locations st.account st.granularity;
    Accounting.add_vc st.account (cell_bytes c);
    Shadow_table.set st.shadow a c;
    c

let refine st c held =
  let before = cell_bytes c in
  c.candidates <- Iset.inter c.candidates held;
  let after = cell_bytes c in
  if after <> before then Accounting.add_vc st.account (after - before)

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let held = Lock_tracker.held st.locks tid in
  let g = st.granularity in
  let lo = addr land lnot (g - 1) in
  let hi = (addr + size + g - 1) land lnot (g - 1) in
  let reported = ref false in
  let a = ref lo in
  while !a < hi do
    let slot_lo = !a in
    let c = cell_at st slot_lo in
    if not c.racy then begin
      (match c.phase with
       | Virgin ->
         c.phase <- Exclusive tid;
         c.candidates <- held;
         c.loc <- loc;
         c.last_tid <- tid
       | Exclusive owner when owner = tid ->
         c.loc <- loc;
         (* Eraser leaves the candidate set untouched while exclusive *)
         ()
       | Exclusive _ ->
         c.phase <- (if write then Shared_modified else Shared);
         refine st c held
       | Shared ->
         if write then c.phase <- Shared_modified;
         refine st c held
       | Shared_modified -> refine st c held);
      (match c.phase with
       | Shared_modified when Iset.is_empty c.candidates ->
         c.racy <- true;
         if not !reported then begin
           reported := true;
           let current : Report.endpoint = { tid; kind; clock = 0; loc } in
           let previous : Report.endpoint =
             { tid = c.last_tid; kind = Event.Write; clock = 0; loc = c.loc }
           in
           let r =
             Report.make ~addr:slot_lo ~size:g ~current ~previous
               ~granule:(slot_lo, slot_lo + g) ()
           in
           ignore (Report.Collector.add st.collector r : bool)
         end
       | Virgin | Exclusive _ | Shared | Shared_modified -> ());
      c.last_tid <- tid;
      if not c.racy then c.loc <- loc
    end;
    a := !a + g
  done

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  Shadow_table.iter_range
    (fun _ _ c ->
      Accounting.vc_freed st.account;
      Accounting.add_vc st.account (-cell_bytes c))
    st.shadow ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.shadow ~lo:addr ~hi:(addr + size)

let create ?(granularity = 4) ?(suppression = Suppression.empty) () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Lockset.create: granularity must be a power of two";
  let account = Accounting.create () in
  let st =
    {
      granularity;
      locks = Lock_tracker.create ();
      shadow =
        Shadow_table.create ~mode:(Shadow_table.Fixed_bytes granularity) ~account ();
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
    }
  in
  let on_event ev =
    match ev with
    | Event.Access { tid; kind; addr; size; loc } ->
      on_access st ~tid ~kind ~addr ~size ~loc
    | Event.Acquire _ | Event.Release _ ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      Lock_tracker.handle st.locks ev
    | Event.Fork _ | Event.Join _ | Event.Thread_exit _ ->
      st.stats.sync_ops <- st.stats.sync_ops + 1
    | Event.Alloc _ -> st.stats.allocs <- st.stats.allocs + 1
    | Event.Free { addr; size; _ } -> on_free st ~addr ~size
  in
  {
    Detector.name = "eraser-lockset";
    on_event;
    process_batch = None;
    finish = (fun () -> ());
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics = Dgrace_obs.Metrics.create ();
    transitions = None;
    degrade = None;
  }
