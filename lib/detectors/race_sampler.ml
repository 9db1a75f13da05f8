open Dgrace_events
module Metrics = Dgrace_obs.Metrics

type mode = Granule | Access

let default_seed = 0x5eed

(* share_granule is a power of two (asserted in Dynamic_granularity);
   precompute its shift so the hot path is one logical shift. *)
let granule_shift =
  let rec go n g = if g <= 1 then n else go (n + 1) (g lsr 1) in
  go 0 Dynamic_granularity.share_granule

let granule_of_addr addr = addr lsr granule_shift

(* One-in-2^30 resolution keep threshold: [selected] holds when a
   SplitMix-style fixed-point hash of the id lands under
   [rate * 2^30].  [rate = 1.0] gives threshold 2^30, above every
   30-bit hash value, so everything is selected. *)
let resolution = 1 lsl 30

let threshold_of_rate rate = int_of_float (ceil (rate *. float_of_int resolution))

let mix ~seed x =
  let h = (x lxor seed) * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1B873593 in
  let h = h lxor (h lsr 32) in
  h land (resolution - 1)

let selected ~rate ~seed id = mix ~seed id < threshold_of_rate rate

(* ------------------------------------------------------------------ *)
(* Shared batched fast path: filter access rows through [keep] into a
   reused batch (offsets preserved) and hand it to the inner detector.
   Non-access rows are always copied — clocks must stay exact — and
   stream statistics are counted here exactly as the per-event
   wrappers count them, so both paths produce the same stats.

   Recycling-safe (batch.mli): the input batch may come from a
   {!Dgrace_trace.Batch_ring} and is invalid once this callback
   returns, so every surviving row is copied into the sampler-owned
   [out] buffer and [out] is flushed to the inner detector before the
   callback returns — no reference to [b] or its arrays escapes.  [out]
   takes [b]'s location table as it fills ({!Batch.copy_row}), so the
   inner detector resolves ids through the source's table. *)

let filtering_batch ~(inner : Detector.t) ~(stats : Run_stats.t) ~analysed
    ~skipped ~keep =
  let out = Batch.create () in
  let flush () =
    if Batch.length out > 0 then begin
      (match inner.Detector.process_batch with
       | Some pb -> pb out
       | None ->
         for i = 0 to Batch.length out - 1 do
           Report.Collector.set_tag inner.Detector.collector out.Batch.off.(i);
           inner.Detector.on_event (Batch.event out i)
         done);
      Batch.clear out
    end
  in
  let copy (b : Batch.t) i =
    if Batch.is_full out then flush ();
    Batch.copy_row ~src:b i ~dst:out
  in
  fun (b : Batch.t) ->
    let n = Batch.length b in
    for i = 0 to n - 1 do
      let k = Array.unsafe_get b.Batch.kind i in
      if k <= Batch.code_write then begin
        stats.accesses <- stats.accesses + 1;
        if k = Batch.code_write then stats.writes <- stats.writes + 1
        else stats.reads <- stats.reads + 1;
        if keep b i then begin
          Metrics.incr analysed;
          copy b i
        end
        else Metrics.incr skipped
      end
      else begin
        if k = Batch.code_alloc then stats.allocs <- stats.allocs + 1
        else if k = Batch.code_free then stats.frees <- stats.frees + 1
        else stats.sync_ops <- stats.sync_ops + 1;
        copy b i
      end
    done;
    flush ()

(* ------------------------------------------------------------------ *)

type state = {
  mode : mode;
  threshold : int;
  seed : int;
  inner : Detector.t;
  stats : Run_stats.t;
  analysed : Metrics.counter;
  skipped : Metrics.counter;
  mutable seen : int;  (* access index, the Access-mode coin input *)
}

let keep_access st ~addr ~size =
  match st.mode with
  | Granule ->
    let g0 = addr lsr granule_shift in
    let g1 = (addr + size - 1) lsr granule_shift in
    mix ~seed:st.seed g0 < st.threshold
    || (g1 <> g0 && mix ~seed:st.seed g1 < st.threshold)
  | Access ->
    let i = st.seen in
    st.seen <- i + 1;
    mix ~seed:st.seed i < st.threshold

let create ?(mode = Granule) ?(rate = 0.1) ?(seed = default_seed) ?name ~inner
    () =
  if not (rate > 0. && rate <= 1.) then
    invalid_arg "Race_sampler.create: rate must be in (0, 1]";
  let st =
    {
      mode;
      threshold = threshold_of_rate rate;
      seed;
      inner;
      stats = Run_stats.create ();
      analysed = Metrics.counter inner.Detector.metrics "sampling.analysed";
      skipped = Metrics.counter inner.Detector.metrics "sampling.skipped";
      seen = 0;
    }
  in
  Metrics.set
    (Metrics.gauge inner.Detector.metrics "sampling.rate_ppm")
    (int_of_float (rate *. 1e6));
  let on_event ev =
    match ev with
    | Event.Access { kind; addr; size; _ } ->
      st.stats.accesses <- st.stats.accesses + 1;
      if kind = Event.Write then st.stats.writes <- st.stats.writes + 1
      else st.stats.reads <- st.stats.reads + 1;
      if keep_access st ~addr ~size then begin
        Metrics.incr st.analysed;
        st.inner.on_event ev
      end
      else Metrics.incr st.skipped
    | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Join _
    | Event.Thread_exit _ ->
      st.stats.sync_ops <- st.stats.sync_ops + 1;
      st.inner.on_event ev
    | Event.Alloc _ ->
      st.stats.allocs <- st.stats.allocs + 1;
      st.inner.on_event ev
    | Event.Free _ ->
      st.stats.frees <- st.stats.frees + 1;
      st.inner.on_event ev
  in
  let process_batch =
    filtering_batch ~inner ~stats:st.stats ~analysed:st.analysed
      ~skipped:st.skipped ~keep:(fun b i ->
        keep_access st ~addr:b.Batch.b.(i) ~size:b.Batch.c.(i))
  in
  let finish () =
    let a = Metrics.value st.analysed and s = Metrics.value st.skipped in
    if a + s > 0 then
      Metrics.set
        (Metrics.gauge inner.Detector.metrics "sampling.fraction_ppm")
        (int_of_float (float_of_int a *. 1e6 /. float_of_int (a + s)));
    st.inner.finish ()
  in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "%s:%g"
        (match mode with Granule -> "sample-granule" | Access -> "sample")
        rate
  in
  {
    Detector.name;
    on_event;
    process_batch = Some process_batch;
    finish;
    collector = inner.collector;
    account = inner.account;
    stats = st.stats;
    metrics = inner.metrics;
    transitions = inner.transitions;
    degrade = inner.degrade;
  }
