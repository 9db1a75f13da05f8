open Dgrace_events
module Metrics = Dgrace_obs.Metrics

type region = {
  mutable rate_log2 : int;  (* sample 1 access in 2^rate_log2 *)
  mutable analysed : int;  (* analysed accesses since last decay *)
  mutable counter : int;  (* deterministic sampling coin *)
}

type state = {
  floor_log2 : int;
  decay_every : int;
  mutable locs : Loc_table.t;  (* what the region keys mean *)
  mutable regions : region array;  (* by location id; [no_region] if none *)
  inner : Detector.t;
  stats : Run_stats.t;
  analysed_c : Metrics.counter;
  skipped_c : Metrics.counter;
}

let check_floor_rate floor_rate =
  if floor_rate <= 0. || floor_rate > 1. then
    invalid_arg "Literace_sampling: floor_rate must be in (0, 1]"

(* The deepest halving that stays at or above the floor:
   2^-floor_log2 >= floor_rate.  [floor], not [ceil] — rounding the
   exponent up once put the effective rate a whole halving *below*
   the documented floor (0.02 became 1/64 = 1.56%).  The post-check
   guards against the log ratio landing an ulp high. *)
let floor_log2_of_rate floor_rate =
  let k = max 0 (int_of_float (Float.floor (-.log floor_rate /. log 2.))) in
  if 1. /. float_of_int (1 lsl k) < floor_rate then max 0 (k - 1) else k

let effective_floor ~floor_rate =
  check_floor_rate floor_rate;
  1. /. float_of_int (1 lsl floor_log2_of_rate floor_rate)

let no_region = { rate_log2 = 0; analysed = 0; counter = 0 }

(* The region of location id [id], created on its first access. *)
let region_of st id =
  let n = Array.length st.regions in
  if id >= n then begin
    let grown = Array.make (max (2 * n) (id + 1)) no_region in
    Array.blit st.regions 0 grown 0 n;
    st.regions <- grown
  end;
  let r = st.regions.(id) in
  if r != no_region then r
  else begin
    let r = { rate_log2 = 0; analysed = 0; counter = 0 } in
    st.regions.(id) <- r;
    r
  end

(* deterministic sampling: the first of every 2^rate_log2 accesses *)
let sampled st r =
  let hit = r.counter land ((1 lsl r.rate_log2) - 1) = 0 in
  r.counter <- r.counter + 1;
  if hit then begin
    r.analysed <- r.analysed + 1;
    if r.analysed >= st.decay_every && r.rate_log2 < st.floor_log2 then begin
      r.analysed <- 0;
      r.rate_log2 <- r.rate_log2 + 1
    end
  end;
  hit

let create ?(floor_rate = 0.02) ?(decay_every = 64)
    ?(suppression = Suppression.empty) () =
  check_floor_rate floor_rate;
  if decay_every < 1 then invalid_arg "Literace_sampling.create: decay_every < 1";
  let inner =
    Dynamic_granularity.create ~sharing:false ~name:"ft-byte" ~suppression ()
  in
  let st =
    {
      floor_log2 = floor_log2_of_rate floor_rate;
      decay_every;
      locs = Loc_table.create ();
      regions = Array.make 64 no_region;
      inner;
      stats = Run_stats.create ();
      analysed_c = Metrics.counter inner.Detector.metrics "sampling.analysed";
      skipped_c = Metrics.counter inner.Detector.metrics "sampling.skipped";
    }
  in
  let on_event ev =
    match ev with
    | Event.Access { kind; loc; _ } ->
      st.stats.accesses <- st.stats.accesses + 1;
      if kind = Event.Write then st.stats.writes <- st.stats.writes + 1
      else st.stats.reads <- st.stats.reads + 1;
      if sampled st (region_of st (Loc_table.intern st.locs loc)) then begin
        Metrics.incr st.analysed_c;
        st.inner.on_event ev
      end
      else
        (* skipped entirely: LiteRace's unsoundness, counted in its own
           instrument — [same_epoch] keeps meaning same-epoch hits *)
        Metrics.incr st.skipped_c
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
  let filter =
    Race_sampler.filtering_batch ~inner ~stats:st.stats ~analysed:st.analysed_c
      ~skipped:st.skipped_c ~keep:(fun b i ->
        sampled st (region_of st b.Batch.loc.(i)))
  in
  let process_batch b =
    st.locs <- Loc_table.adopt (Batch.locs b) ~own:st.locs;
    filter b
  in
  {
    Detector.name = "literace-sampling";
    on_event;
    process_batch = Some process_batch;
    finish = st.inner.finish;
    collector = st.inner.collector;
    account = st.inner.account;
    stats = st.stats;
    metrics = st.inner.metrics;
    transitions = st.inner.transitions;
    degrade = st.inner.degrade;
  }
