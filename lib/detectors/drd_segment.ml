open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Vec = Dgrace_util.Vec

(* Per-segment address sets, one bit per granule in chunked bitmaps —
   the compressed representation that keeps DRD's memory {e below} the
   per-address-clock detectors (the paper's Table 6 trade-off: set
   operations per access, but no vector clock per location). *)
module Gset = struct
  let chunk_addrs = 1024  (* address bytes covered per chunk *)

  type t = {
    g : int;  (* granularity in bytes *)
    chunks : (int, Bytes.t) Hashtbl.t;
    mutable card : int;  (* bits set *)
    mutable nbytes : int;  (* storage for accounting *)
  }

  let create g = { g; chunks = Hashtbl.create 8; card = 0; nbytes = 0 }
  let chunk_bytes t = chunk_addrs / t.g / 8

  let locate t addr =
    let base = addr land lnot (chunk_addrs - 1) in
    let bit = (addr - base) / t.g in
    (base, bit lsr 3, bit land 7)

  let mem t addr =
    let base, i, b = locate t addr in
    match Hashtbl.find_opt t.chunks base with
    | None -> false
    | Some c -> Char.code (Bytes.get c i) land (1 lsl b) <> 0

  (* returns true when the bit was newly set *)
  let add t addr =
    let base, i, b = locate t addr in
    let c =
      match Hashtbl.find_opt t.chunks base with
      | Some c -> c
      | None ->
        let c = Bytes.make (chunk_bytes t) '\000' in
        Hashtbl.replace t.chunks base c;
        t.nbytes <- t.nbytes + chunk_bytes t + 16;
        c
    in
    let old = Char.code (Bytes.get c i) in
    if old land (1 lsl b) <> 0 then false
    else begin
      Bytes.set c i (Char.chr (old lor (1 lsl b)));
      t.card <- t.card + 1;
      true
    end

  let clear_range t ~lo ~hi =
    let a = ref (lo land lnot (t.g - 1)) in
    while !a < hi do
      let base, i, b = locate t !a in
      match Hashtbl.find_opt t.chunks base with
      | None -> a := base + chunk_addrs  (* skip the whole absent chunk *)
      | Some c ->
        let old = Char.code (Bytes.get c i) in
        if old land (1 lsl b) <> 0 then begin
          Bytes.set c i (Char.chr (old land lnot (1 lsl b)));
          t.card <- t.card - 1
        end;
        a := !a + t.g
    done

  let card t = t.card
  let bytes t = t.nbytes
end

type segment = {
  sid : int;
  stid : int;
  svc : Vc_intern.snap;  (* interned clock snapshot at segment start *)
  reads : Gset.t;
  writes : Gset.t;
  chunkset : (int, unit) Hashtbl.t;  (* address chunks this segment touches *)
  mutable last_loc : string;
  (* concurrency test memoised against the current segment it was last
     compared with *)
  mutable cache_sid : int;
  mutable cache_concurrent : bool;
}

let seg_base_bytes = 8 * 14

type state = {
  granularity : int;
  intern : Vc_intern.t;
  env : Vc_env.t;
  mutable next_sid : int;
  current : segment option Vec.t;  (* per thread *)
  mutable finished : segment list;
  exited : (int, unit) Hashtbl.t;
  racy : (int, unit) Hashtbl.t;  (* granules already reported *)
  index : (int, segment Vec.t) Hashtbl.t;
      (* address chunk -> segments touching it; the per-address danger
         structure that keeps conflict checks from scanning every live
         segment *)
  mutable closes : int;
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
}

let seg_set_bytes s = Gset.bytes s.reads + Gset.bytes s.writes

let current_of st tid =
  while Vec.length st.current <= tid do
    Vec.push st.current None
  done;
  match Vec.get st.current tid with
  | Some s -> s
  | None ->
    let s =
      {
        sid = st.next_sid;
        stid = tid;
        (* segments of different threads with equal start clocks — and
           successive segments of one thread between syncs — share one
           snapshot; the arena accounts the bytes *)
        svc = Vc_intern.intern st.intern (Vc_env.clock_of st.env tid);
        reads = Gset.create st.granularity;
        writes = Gset.create st.granularity;
        chunkset = Hashtbl.create 8;
        last_loc = "";
        cache_sid = -1;
        cache_concurrent = false;
      }
    in
    st.next_sid <- st.next_sid + 1;
    Accounting.vc_created st.account;
    Accounting.add_hash st.account seg_base_bytes;
    Vec.set st.current tid (Some s);
    s

let index_add st seg chunk =
  if not (Hashtbl.mem seg.chunkset chunk) then begin
    Hashtbl.replace seg.chunkset chunk ();
    let v =
      match Hashtbl.find_opt st.index chunk with
      | Some v -> v
      | None ->
        let v = Vec.create () in
        Hashtbl.replace st.index chunk v;
        v
    in
    Vec.push v seg
  end

let rebuild_index st =
  Hashtbl.reset st.index;
  let readd seg =
    Hashtbl.iter
      (fun chunk () ->
        let v =
          match Hashtbl.find_opt st.index chunk with
          | Some v -> v
          | None ->
            let v = Vec.create () in
            Hashtbl.replace st.index chunk v;
            v
        in
        Vec.push v seg)
      seg.chunkset
  in
  Vec.iter (function Some s -> readd s | None -> ()) st.current;
  List.iter readd st.finished

let retire_segment st s =
  Accounting.vc_freed st.account;
  Vc_intern.release s.svc;
  Accounting.add_hash st.account (-(seg_base_bytes + seg_set_bytes s))

(* Drop finished segments that are ordered before every live thread:
   nothing in the future can be concurrent with them. *)
let sweep st =
  let live = ref [] in
  for tid = 0 to Vc_env.thread_count st.env - 1 do
    if not (Hashtbl.mem st.exited tid) then
      live := (tid, Vc_env.clock_of st.env tid) :: !live
  done;
  let keep s =
    List.exists
      (fun (tid, vc) -> tid <> s.stid && not (Vc_intern.leq_clock s.svc vc))
      !live
  in
  let kept, dropped = List.partition keep st.finished in
  List.iter (retire_segment st) dropped;
  st.finished <- kept;
  if dropped <> [] then rebuild_index st

let close_segment st tid =
  if tid < Vec.length st.current then
    match Vec.get st.current tid with
    | None -> ()
    | Some s ->
      Vec.set st.current tid None;
      if Gset.card s.reads = 0 && Gset.card s.writes = 0 then
        retire_segment st s
      else begin
        st.finished <- s :: st.finished;
        st.closes <- st.closes + 1;
        if st.closes land 15 = 0 then sweep st
      end

let concurrent_with cur other =
  if other.cache_sid = cur.sid then other.cache_concurrent
  else begin
    let c =
      (not (Vc_intern.leq other.svc cur.svc))
      && not (Vc_intern.leq cur.svc other.svc)
    in
    other.cache_sid <- cur.sid;
    other.cache_concurrent <- c;
    c
  end

let conflict ~write other a =
  if write then Gset.mem other.writes a || Gset.mem other.reads a
  else Gset.mem other.writes a

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let seg = current_of st tid in
  seg.last_loc <- loc;
  let g = st.granularity in
  let lo = addr land lnot (g - 1) in
  let hi = (addr + size + g - 1) land lnot (g - 1) in
  let a = ref lo in
  while !a < hi do
    let granule = !a in
    let own = if write then seg.writes else seg.reads in
    let bytes_before = Gset.bytes own in
    if not (Gset.add own granule) then
      (* already recorded in this segment: nothing new can conflict *)
      st.stats.same_epoch <- st.stats.same_epoch + 1
    else begin
      let grown = Gset.bytes own - bytes_before in
      if grown <> 0 then Accounting.add_hash st.account grown;
      index_add st seg (granule land lnot (Gset.chunk_addrs - 1));
      if not (Hashtbl.mem st.racy granule) then begin
        let check other =
          if
            other.stid <> tid
            && conflict ~write other granule
            && concurrent_with seg other
          then begin
            Hashtbl.replace st.racy granule ();
            let current : Report.endpoint =
              { tid; kind; clock = Vc_intern.get seg.svc tid; loc }
            in
            let previous : Report.endpoint =
              {
                tid = other.stid;
                kind =
                  (if Gset.mem other.writes granule then Event.Write
                   else Event.Read);
                clock = Vc_intern.get other.svc other.stid;
                loc = other.last_loc;
              }
            in
            let r =
              Report.make ~addr:granule ~size:g ~current ~previous
                ~granule:(granule, granule + g) ()
            in
            ignore (Report.Collector.add st.collector r : bool);
            true
          end
          else false
        in
        (match Hashtbl.find_opt st.index (granule land lnot (Gset.chunk_addrs - 1)) with
         | None -> ()
         | Some candidates -> ignore (Vec.exists check candidates : bool))
      end
    end;
    a := !a + g
  done

(* free(): purge the range from every live segment so a recycled
   address can never conflict with accesses to the old allocation. *)
let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  let purge s =
    Gset.clear_range s.reads ~lo:addr ~hi:(addr + size);
    Gset.clear_range s.writes ~lo:addr ~hi:(addr + size)
  in
  Vec.iter (function Some s -> purge s | None -> ()) st.current;
  List.iter purge st.finished

let create ?(granularity = 4) ?(suppression = Suppression.empty) () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Drd_segment.create: granularity must be a power of two";
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
      intern;
      env = Vc_env.create ();
      next_sid = 0;
      current = Vec.create ();
      finished = [];
      exited = Hashtbl.create 16;
      racy = Hashtbl.create 64;
      index = Hashtbl.create 64;
      closes = 0;
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
    }
  in
  let on_event ev =
    match ev with
    | Event.Access { tid; kind; addr; size; loc } ->
      on_access st ~tid ~kind ~addr ~size ~loc
    | Event.Acquire { tid; lock; sync = _ } ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      close_segment st tid;
      Vc_env.acquire st.env ~tid ~lock
    | Event.Release { tid; lock; sync = _ } ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      close_segment st tid;
      Vc_env.release st.env ~tid ~lock
    | Event.Fork { parent; child } ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      close_segment st parent;
      Vc_env.fork st.env ~parent ~child
    | Event.Join { parent; child } ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      close_segment st parent;
      Vc_env.join st.env ~parent ~child
    | Event.Thread_exit { tid } ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      close_segment st tid;
      Hashtbl.replace st.exited tid ();
      Vector_clock.tick (Vc_env.clock_of st.env tid) tid
    | Event.Alloc _ -> st.stats.allocs <- st.stats.allocs + 1
    | Event.Free { addr; size; _ } -> on_free st ~addr ~size
  in
  let metrics = Dgrace_obs.Metrics.create () in
  {
    Detector.name = "drd-segment";
    on_event;
    process_batch = None;
    finish =
      (fun () ->
        sweep st;
        Vclock_obs.publish metrics st.intern);
    collector = st.collector;
    account = st.account;
    stats = st.stats;
    metrics;
    transitions = None;
    degrade = None;
  }
