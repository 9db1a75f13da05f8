open Dgrace_vclock
open Dgrace_events
open Dgrace_shadow
module Vec = Dgrace_util.Vec
module Metrics = Dgrace_obs.Metrics
module Span = Dgrace_obs.Span

type cell = {
  mutable w : Epoch.t;
  mutable w_loc : string;
  mutable r : Read_state.t;
  mutable r_loc : string;
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
  bitmaps : Epoch_bitmap.t option Vec.t;  (* per thread *)
  account : Accounting.t;
  stats : Run_stats.t;
  collector : Report.Collector.t;
  metrics : Metrics.t;
  m_analysed : Metrics.counter;  (* accesses that left the fast path *)
  m_epoch_cmp : Metrics.counter;  (* O(1) epoch comparisons *)
  m_vc_op : Metrics.counter;  (* full vector-clock reads/joins *)
  (* Sampled phase timers: real under [create ~tracer], [Span.disabled]
     stand-ins otherwise — see Dynamic_granularity for the rationale. *)
  tm_shadow : Span.timer;  (* shadow cell lookups *)
  tm_vc : Span.timer;  (* epoch / vector-clock checks and updates *)
}

let bitmap st tid =
  while Vec.length st.bitmaps <= tid do
    Vec.push st.bitmaps None
  done;
  match Vec.get st.bitmaps tid with
  | Some b -> b
  | None ->
    let b = Epoch_bitmap.create ~account:st.account () in
    Vec.set st.bitmaps tid (Some b);
    b

let fresh_cell st =
  Accounting.vc_created st.account;
  Accounting.bind_locations st.account 1;
  Accounting.add_vc st.account cell_cost;
  { w = Epoch.none; w_loc = ""; r = Read_state.No_reads; r_loc = ""; racy = false }

let retire_cell st c =
  Accounting.vc_freed st.account;
  Accounting.add_vc st.account (-cell_cost);
  Read_state.release c.r;
  c.r <- Read_state.No_reads

(* [absent] sentinel of shadow lookups: never stored *)
let no_cell =
  { w = Epoch.none; w_loc = ""; r = Read_state.No_reads; r_loc = ""; racy = false }

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
  (match c.r with
   | Read_state.Vc _ -> Metrics.incr st.m_vc_op
   | Read_state.No_reads | Read_state.Ep _ -> Metrics.incr st.m_epoch_cmp);
  c.r_loc <- loc

let report_race st ~slot_lo ~current ~previous =
  let r =
    Report.make ~addr:slot_lo ~size:st.granularity ~current ~previous
      ~granule:(slot_lo, slot_lo + st.granularity) ()
  in
  ignore (Report.Collector.add st.collector r : bool)

let on_access st ~tid ~kind ~addr ~size ~loc =
  st.stats.accesses <- st.stats.accesses + 1;
  let write = kind = Event.Write in
  if write then st.stats.writes <- st.stats.writes + 1
  else st.stats.reads <- st.stats.reads + 1;
  let bm = bitmap st tid in
  if Epoch_bitmap.test_range bm ~write ~lo:addr ~hi:(addr + size - 1) then
    st.stats.same_epoch <- st.stats.same_epoch + 1
  else begin
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
          Race_info.current ~tid ~kind ~clock:(Epoch.clock here) ~loc
        in
        report_race st ~slot_lo ~current ~previous
      end
    in
    let a = ref lo in
    while !a < hi do
      let slot_lo = !a in
      Span.timer_start st.tm_shadow;
      let c = cell_at st slot_lo in
      Span.timer_stop st.tm_shadow;
      if not c.racy then begin
        Span.timer_start st.tm_vc;
        if write then begin
          if not (Epoch.equal c.w here) then begin
            Metrics.incr st.m_epoch_cmp;
            (match c.r with
             | Read_state.Vc _ -> Metrics.incr st.m_vc_op
             | Read_state.No_reads | Read_state.Ep _ -> ());
            if not (Vector_clock.epoch_leq c.w tvc) then
              race c ~previous:(Race_info.of_write ~w:c.w ~loc:c.w_loc) ~slot_lo
            else if not (Read_state.leq c.r tvc) then
              race c
                ~previous:(Race_info.of_read_state c.r ~against:tvc ~loc:c.r_loc)
                ~slot_lo;
            if not c.racy then begin
              c.w <- here;
              c.w_loc <- loc;
              (* a write ordered after all reads lets the read history
                 collapse back to the cheap representation *)
              match c.r with
              | Read_state.Vc _ ->
                Read_state.release c.r;
                c.r <- Read_state.No_reads
              | Read_state.No_reads | Read_state.Ep _ -> ()
            end
          end
        end
        else if not (Read_state.same_epoch c.r here) then begin
          Metrics.incr st.m_epoch_cmp;
          if not (Vector_clock.epoch_leq c.w tvc) then
            race c ~previous:(Race_info.of_write ~w:c.w ~loc:c.w_loc) ~slot_lo
          else record_read st c ~tid ~tvc ~loc
        end;
        Span.timer_stop st.tm_vc
      end;
      a := !a + g
    done;
    Epoch_bitmap.mark bm ~write ~lo:addr ~hi:(addr + size)
  end

let on_free st ~addr ~size =
  st.stats.frees <- st.stats.frees + 1;
  Shadow_table.iter_range
    (fun _ _ c -> retire_cell st c)
    st.shadow ~lo:addr ~hi:(addr + size);
  Shadow_table.remove_range st.shadow ~lo:addr ~hi:(addr + size)

(* Page-clustered batch application groups by aligned 4 KiB shadow
   pages — the same alignment as [Dynamic_granularity.share_granule]
   and the shadow tables' leaf pages. *)
let cluster_page_bits = 12

let create ?(granularity = 1) ?(suppression = Suppression.empty)
    ?(vc_intern = true) ?(page_cluster = true) ?tracer () =
  if granularity <= 0 || granularity land (granularity - 1) <> 0 then
    invalid_arg "Fasttrack.create: granularity must be a power of two";
  let account = Accounting.create () in
  let metrics = Metrics.create () in
  let intern =
    Vc_intern.create ~hash_consing:vc_intern
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
      bitmaps = Vec.create ();
      account;
      stats = Run_stats.create ();
      collector = Report.Collector.create ~suppression ();
      metrics;
      m_analysed = Metrics.counter metrics "accesses.analysed";
      m_epoch_cmp = Metrics.counter metrics "phase.epoch_compare";
      m_vc_op = Metrics.counter metrics "phase.vc_op";
      tm_shadow =
        (match tracer with
         | Some buf -> Span.timer buf ~name:"phase.shadow_lookup" ~mask:7
         | None -> Span.disabled ());
      tm_vc =
        (match tracer with
         | Some buf -> Span.timer buf ~name:"phase.vc_check" ~mask:7
         | None -> Span.disabled ());
    }
  in
  let on_boundary tid = Epoch_bitmap.reset (bitmap st tid) in
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
  (* Batched fast path; see the dynamic-granularity twin for the
     shape.  Accesses walk the columns directly, sync rows go through
     the kind-coded clock dispatch, and the collector tag is stamped
     per row. *)
  let process_batch_rows (b : Batch.t) =
    let n = Batch.length b in
    let kind = b.Batch.kind
    and ta = b.Batch.a
    and tb = b.Batch.b
    and tc = b.Batch.c
    and tloc = b.Batch.loc
    and toff = b.Batch.off in
    (* Same-epoch test inlined with the thread's bitmap cached across
       same-tid runs; a hit makes exactly the state changes
       [on_access]'s fast path would (no collector tag — hits never
       report).  [i < n <= capacity] of every column, so the reads are
       in bounds by construction. *)
    let cached = ref None in
    let bm_for tid =
      match !cached with
      | Some (t, bm) when t = tid -> bm
      | _ ->
        let bm = bitmap st tid in
        cached := Some (tid, bm);
        bm
    in
    for i = 0 to n - 1 do
      let k = Array.unsafe_get kind i in
      if k <= Batch.code_write then begin
        let tid = Array.unsafe_get ta i in
        let addr = Array.unsafe_get tb i in
        let size = Array.unsafe_get tc i in
        let write = k = Batch.code_write in
        if
          Epoch_bitmap.test_range (bm_for tid) ~write ~lo:addr
            ~hi:(addr + size - 1)
        then begin
          st.stats.accesses <- st.stats.accesses + 1;
          if write then st.stats.writes <- st.stats.writes + 1
          else st.stats.reads <- st.stats.reads + 1;
          st.stats.same_epoch <- st.stats.same_epoch + 1
        end
        else begin
          Report.Collector.set_tag st.collector (Array.unsafe_get toff i);
          on_access st ~tid
            ~kind:(if write then Event.Write else Event.Read)
            ~addr ~size ~loc:(Array.unsafe_get tloc i)
        end
      end
      else if k = Batch.code_alloc then st.stats.allocs <- st.stats.allocs + 1
      else if k = Batch.code_free then begin
        Report.Collector.set_tag st.collector (Array.unsafe_get toff i);
        on_free st ~addr:(Array.unsafe_get tb i) ~size:(Array.unsafe_get tc i)
      end
      else if
        Vc_env.handle_coded st.env ~kind:k ~a:(Array.unsafe_get ta i)
          ~b:(Array.unsafe_get tb i) ~on_boundary
      then st.stats.sync_ops <- st.stats.sync_ops + 1
    done
  in
  (* Page-clustered variant (doc/shadow.md): slots are [granularity]
     bytes, aligned, so for granularity <= 4096 no cell ever spans a
     4 KiB page — rows whose rounded slot range stays inside one page
     commute across pages, and only sync rows, frees and accesses
     whose slot range straddles a page act as in-order barriers
     (unlike the dynamic detector there is no persistent cell that
     spans pages, so no weld set is needed).  Order within a page and
     the per-batch collector resort give byte-identical reports. *)
  let max_groups = 64 in
  let slot_mask = 255 in
  let group_page = Array.make max_groups 0 in
  let group_first = Array.make max_groups (-1) in
  let group_last = Array.make max_groups (-1) in
  let page_slot = Array.make (slot_mask + 1) (-1) in
  let run_start = ref (Array.make Batch.default_capacity 0) in
  let run_len = ref (Array.make Batch.default_capacity 0) in
  let run_next = ref (Array.make Batch.default_capacity (-1)) in
  let m_cluster_rows = Metrics.counter metrics "cluster.rows" in
  let m_cluster_pages = Metrics.counter metrics "cluster.pages" in
  let m_cluster_barriers = Metrics.counter metrics "cluster.barriers" in
  let process_batch_clustered (b : Batch.t) =
    let n = Batch.length b in
    if Array.length !run_start < n then begin
      run_start := Array.make n 0;
      run_len := Array.make n 0;
      run_next := Array.make n (-1)
    end;
    let rs = !run_start and rl = !run_len and rn = !run_next in
    let kind = b.Batch.kind
    and ta = b.Batch.a
    and tb = b.Batch.b
    and tc = b.Batch.c
    and tloc = b.Batch.loc
    and toff = b.Batch.off in
    let n0 = Report.Collector.count st.collector in
    let cached = ref None in
    let bm_for tid =
      match !cached with
      | Some (t, bm) when t = tid -> bm
      | _ ->
        let bm = bitmap st tid in
        cached := Some (tid, bm);
        bm
    in
    let apply_access i =
      let tid = Array.unsafe_get ta i in
      let addr = Array.unsafe_get tb i in
      let size = Array.unsafe_get tc i in
      let write = Array.unsafe_get kind i = Batch.code_write in
      if
        Epoch_bitmap.test_range (bm_for tid) ~write ~lo:addr
          ~hi:(addr + size - 1)
      then begin
        st.stats.accesses <- st.stats.accesses + 1;
        if write then st.stats.writes <- st.stats.writes + 1
        else st.stats.reads <- st.stats.reads + 1;
        st.stats.same_epoch <- st.stats.same_epoch + 1
      end
      else begin
        Report.Collector.set_tag st.collector (Array.unsafe_get toff i);
        on_access st ~tid
          ~kind:(if write then Event.Write else Event.Read)
          ~addr ~size ~loc:(Array.unsafe_get tloc i)
      end
    in
    let g = st.granularity in
    let ngroups = ref 0
    and nruns = ref 0
    and pending = ref 0
    and last_page = ref (-1)
    and last_row = ref (-2)
    and last_run = ref (-1) in
    let flush () =
      if !ngroups > 0 then begin
        for gi = 0 to !ngroups - 1 do
          let r = ref (Array.unsafe_get group_first gi) in
          while !r >= 0 do
            let s = Array.unsafe_get rs !r in
            for i = s to s + Array.unsafe_get rl !r - 1 do
              apply_access i
            done;
            r := Array.unsafe_get rn !r
          done
        done;
        Metrics.add m_cluster_pages !ngroups;
        Metrics.add m_cluster_rows !pending;
        ngroups := 0;
        nruns := 0;
        pending := 0;
        last_page := -1;
        last_row := -2;
        last_run := -1
      end
    in
    for i = 0 to n - 1 do
      let k = Array.unsafe_get kind i in
      if k <= Batch.code_write then begin
        let addr = Array.unsafe_get tb i in
        let size = Array.unsafe_get tc i in
        (* the rounded slot range [lo, hi) is what the slow path
           walks; cluster by its page, barrier when it spans two *)
        let lo = addr land lnot (g - 1) in
        let hi = (addr + size + g - 1) land lnot (g - 1) in
        if lo lsr cluster_page_bits <> (hi - 1) lsr cluster_page_bits then begin
          flush ();
          Metrics.incr m_cluster_barriers;
          apply_access i
        end
        else begin
          let page = lo lsr cluster_page_bits in
          if !last_page = page && !last_row + 1 = i then begin
            (* the hot path: this row continues the current run *)
            Array.unsafe_set rl !last_run (Array.unsafe_get rl !last_run + 1);
            last_row := i;
            incr pending
          end
          else begin
            let s = page land slot_mask in
            let cand = Array.unsafe_get page_slot s in
            let gi =
              if
                cand >= 0 && cand < !ngroups
                && Array.unsafe_get group_page cand = page
              then cand
              else begin
                (* slot miss (new page, or a collision evicted it): a
                   fresh group is always order-correct, and if the
                   table is full an early flush is just a virtual
                   barrier — correctness is unaffected *)
                if !ngroups = max_groups then flush ();
                let gi = !ngroups in
                group_page.(gi) <- page;
                group_first.(gi) <- -1;
                group_last.(gi) <- -1;
                Array.unsafe_set page_slot s gi;
                ngroups := gi + 1;
                gi
              end
            in
            let r = !nruns in
            nruns := r + 1;
            Array.unsafe_set rs r i;
            Array.unsafe_set rl r 1;
            Array.unsafe_set rn r (-1);
            if Array.unsafe_get group_first gi < 0 then
              Array.unsafe_set group_first gi r
            else Array.unsafe_set rn (Array.unsafe_get group_last gi) r;
            Array.unsafe_set group_last gi r;
            last_page := page;
            last_row := i;
            last_run := r;
            incr pending
          end
        end
      end
      else if k = Batch.code_alloc then
        st.stats.allocs <- st.stats.allocs + 1
      else if k = Batch.code_free then begin
        flush ();
        Report.Collector.set_tag st.collector (Array.unsafe_get toff i);
        on_free st ~addr:(Array.unsafe_get tb i) ~size:(Array.unsafe_get tc i)
      end
      else begin
        flush ();
        if
          Vc_env.handle_coded st.env ~kind:k ~a:(Array.unsafe_get ta i)
            ~b:(Array.unsafe_get tb i) ~on_boundary
        then st.stats.sync_ops <- st.stats.sync_ops + 1
      end
    done;
    flush ();
    Report.Collector.resort_since st.collector n0
  in
  let process_batch =
    if page_cluster && granularity <= 1 lsl cluster_page_bits then
      process_batch_clustered
    else process_batch_rows
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
    let ca = ref 0 and cr = ref 0 in
    for i = 0 to Vec.length st.bitmaps - 1 do
      match Vec.get st.bitmaps i with
      | Some b ->
        let bs : Epoch_bitmap.stats = Epoch_bitmap.stats b in
        ca := !ca + bs.chunk_allocs;
        cr := !cr + bs.chunk_recycles
      | None -> ()
    done;
    g "shadow.bitmap_chunk_allocs" !ca;
    g "shadow.bitmap_chunk_recycles" !cr;
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
