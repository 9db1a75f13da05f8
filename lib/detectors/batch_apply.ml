open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Metrics = Dgrace_obs.Metrics

(* Page-clustered batch application (doc/shadow.md), shared by the
   FastTrack family.  Access rows are grouped by aligned 4 KiB page —
   one share-granule line, one shadow-table leaf page — and applied
   page by page, so leaf pages, their MRU slots and the epoch-bitmap
   chunk cache are each touched once per page per batch instead of
   once per row.  Rows on distinct pages commute: no sharing decision,
   merge probe, shadow slot or report crosses an aligned page.  The
   exceptions are barriers that flush pending groups and apply solo,
   in row order:

   - sync rows (they advance clocks and reset epoch bitmaps),
   - frees (they dissolve cells over an arbitrary range),
   - accesses whose slot range straddles a page — and, with [weld],
     every later access to a page such an access touched, since the
     dynamic detector's cell for it may span both pages.

   Alloc rows only bump a counter, so they commute and apply at once.
   Order within a page is preserved by construction; the collector
   resort restores global report order (tags are per row, so the
   result equals row order — the config-lattice law in
   test/test_pipeline.ml checks this against per-event dispatch).

   Bookkeeping is run-length: consecutive rows on one page collapse
   into one (start, len) run — the common case is a single compare and
   increment per row — and runs chain per group.  The page→group map
   is a direct-mapped slot cache; a collision opens a second group for
   the page, which is still order-correct (groups apply in creation
   order and a page's rows land in its groups in row order). *)

let page_bits = 12
let max_groups = 64
let slot_mask = 255

type t = {
  granularity : int;
  weld : bool;
  stats : Run_stats.t;
  collector : Report.Collector.t;
  env : Vc_env.t;
  bitmap : int -> Epoch_bitmap.t;
  on_boundary : int -> unit;
  on_access :
    tid:int -> kind:Event.access_kind -> addr:int -> size:int -> loc:string -> unit;
  on_free : addr:int -> size:int -> unit;
  (* the thread's bitmap, cached across same-tid rows; two fields, not
     an option of a pair, so a thread switch allocates nothing *)
  mutable cached_tid : int;
  mutable cached_bm : Epoch_bitmap.t;
  group_page : int array;
  group_first : int array;
  group_last : int array;
  page_slot : int array;
  mutable run_start : int array;
  mutable run_len : int array;
  mutable run_next : int array;
  mutable ngroups : int;
  mutable nruns : int;
  mutable pending : int;
  mutable last_page : int;
  mutable last_row : int;
  mutable last_run : int;
  welded : unit Int_table.t;  (* pages a straddling access touched *)
  mutable weld_count : int;
  m_rows : Metrics.counter;
  m_pages : Metrics.counter;
  m_barriers : Metrics.counter;
}

(* The same-epoch test, inlined: a hit makes exactly the state changes
   the detector's own fast path makes — in particular no collector tag
   (hits never report).  A miss stamps the row's offset and takes the
   detector's per-event access handler.  [i < length b <= capacity] of
   every column, so the reads are in bounds by construction. *)
let apply_access t (b : Batch.t) i =
  let tid = Array.unsafe_get b.Batch.a i in
  let addr = Array.unsafe_get b.Batch.b i in
  let size = Array.unsafe_get b.Batch.c i in
  let write = Array.unsafe_get b.Batch.kind i = Batch.code_write in
  if t.cached_tid <> tid then begin
    t.cached_tid <- tid;
    t.cached_bm <- t.bitmap tid
  end;
  if Epoch_bitmap.test_range t.cached_bm ~write ~lo:addr ~hi:(addr + size - 1)
  then begin
    let st = t.stats in
    st.accesses <- st.accesses + 1;
    if write then st.writes <- st.writes + 1 else st.reads <- st.reads + 1;
    st.same_epoch <- st.same_epoch + 1
  end
  else begin
    Report.Collector.set_tag t.collector (Array.unsafe_get b.Batch.off i);
    t.on_access ~tid
      ~kind:(if write then Event.Write else Event.Read)
      ~addr ~size ~loc:(Array.unsafe_get b.Batch.loc i)
  end

let flush t b =
  if t.ngroups > 0 then begin
    for g = 0 to t.ngroups - 1 do
      let r = ref (Array.unsafe_get t.group_first g) in
      while !r >= 0 do
        let s = Array.unsafe_get t.run_start !r in
        for i = s to s + Array.unsafe_get t.run_len !r - 1 do
          apply_access t b i
        done;
        r := Array.unsafe_get t.run_next !r
      done
    done;
    Metrics.add t.m_pages t.ngroups;
    Metrics.add t.m_rows t.pending;
    t.ngroups <- 0;
    t.nruns <- 0;
    t.pending <- 0;
    t.last_page <- -1;
    t.last_row <- -2;
    t.last_run <- -1
  end

let barrier t b i =
  flush t b;
  Metrics.incr t.m_barriers;
  apply_access t b i

(* Queue access row [i] on [page]. *)
let enqueue t b i page =
  if t.last_page = page && t.last_row + 1 = i then begin
    (* the hot path: this row continues the current run *)
    Array.unsafe_set t.run_len t.last_run
      (Array.unsafe_get t.run_len t.last_run + 1);
    t.last_row <- i;
    t.pending <- t.pending + 1
  end
  else begin
    let s = page land slot_mask in
    let cand = Array.unsafe_get t.page_slot s in
    let g =
      if cand >= 0 && cand < t.ngroups && Array.unsafe_get t.group_page cand = page
      then cand
      else begin
        (* slot miss (new page, or a collision evicted it): a fresh
           group is always order-correct, and if the table is full an
           early flush is just a virtual barrier *)
        if t.ngroups = max_groups then flush t b;
        let g = t.ngroups in
        t.group_page.(g) <- page;
        t.group_first.(g) <- -1;
        t.group_last.(g) <- -1;
        Array.unsafe_set t.page_slot s g;
        t.ngroups <- g + 1;
        g
      end
    in
    let r = t.nruns in
    t.nruns <- r + 1;
    Array.unsafe_set t.run_start r i;
    Array.unsafe_set t.run_len r 1;
    Array.unsafe_set t.run_next r (-1);
    if Array.unsafe_get t.group_first g < 0 then
      Array.unsafe_set t.group_first g r
    else Array.unsafe_set t.run_next (Array.unsafe_get t.group_last g) r;
    Array.unsafe_set t.group_last g r;
    t.last_page <- page;
    t.last_row <- i;
    t.last_run <- r;
    t.pending <- t.pending + 1
  end

let apply t (b : Batch.t) =
  let n = Batch.length b in
  if Array.length t.run_start < n then begin
    t.run_start <- Array.make n 0;
    t.run_len <- Array.make n 0;
    t.run_next <- Array.make n (-1)
  end;
  t.cached_tid <- -1;
  let kind = b.Batch.kind and ta = b.Batch.a and tb = b.Batch.b in
  let n0 = Report.Collector.count t.collector in
  let g = t.granularity in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get kind i in
    if k <= Batch.code_write then begin
      (* the slot range [addr, addr + size) rounded out to the
         detector's granularity is what the slow path walks: cluster
         by its first page, barrier when it spans two *)
      let addr = Array.unsafe_get tb i in
      let size = Array.unsafe_get b.Batch.c i in
      let page = (addr land lnot (g - 1)) lsr page_bits in
      let last = (((addr + size + g - 1) land lnot (g - 1)) - 1) lsr page_bits in
      if page <> last then begin
        if t.weld then
          for p = page to last do
            if not (Int_table.mem t.welded p) then begin
              Int_table.replace t.welded p ();
              t.weld_count <- t.weld_count + 1
            end
          done;
        barrier t b i
      end
      else if t.weld_count > 0 && Int_table.mem t.welded page then barrier t b i
      else enqueue t b i page
    end
    else if k = Batch.code_alloc then
      (* a pure counter bump commutes with any pending group; the row
         break is enough to end the current run *)
      t.stats.allocs <- t.stats.allocs + 1
    else if k = Batch.code_free then begin
      flush t b;
      Report.Collector.set_tag t.collector (Array.unsafe_get b.Batch.off i);
      t.on_free ~addr:(Array.unsafe_get tb i) ~size:(Array.unsafe_get b.Batch.c i)
    end
    else begin
      flush t b;
      if
        Vc_env.handle_coded t.env ~kind:k ~a:(Array.unsafe_get ta i)
          ~b:(Array.unsafe_get tb i) ~on_boundary:t.on_boundary
      then t.stats.sync_ops <- t.stats.sync_ops + 1
    end
  done;
  flush t b;
  Report.Collector.resort_since t.collector n0

let make ~granularity ~weld ~metrics ~stats ~collector ~env ~bitmap ~on_boundary
    ~on_access ~on_free =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Batch_apply.make: granularity must be a power of two";
  let t =
    {
      granularity;
      weld;
      stats;
      collector;
      env;
      bitmap;
      on_boundary;
      on_access;
      on_free;
      cached_tid = -1;
      cached_bm = Epoch_bitmap.create ();
      group_page = Array.make max_groups 0;
      group_first = Array.make max_groups (-1);
      group_last = Array.make max_groups (-1);
      page_slot = Array.make (slot_mask + 1) (-1);
      run_start = Array.make Batch.default_capacity 0;
      run_len = Array.make Batch.default_capacity 0;
      run_next = Array.make Batch.default_capacity (-1);
      ngroups = 0;
      nruns = 0;
      pending = 0;
      last_page = -1;
      last_row = -2;
      last_run = -1;
      welded = Int_table.create 16;
      weld_count = 0;
      m_rows = Metrics.counter metrics "cluster.rows";
      m_pages = Metrics.counter metrics "cluster.pages";
      m_barriers = Metrics.counter metrics "cluster.barriers";
    }
  in
  apply t
