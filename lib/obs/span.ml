(* Span tracing: a flight recorder of begin/end/instant events in
   per-lane bounded rings.

   One [buf] per lane (the main thread, each replay shard); every lane
   has exactly one writer — its own domain — so recording takes no
   lock.  Only lane registration and counter-track attachment go
   through the tracer's mutex.  The ring overwrites its oldest entries
   when full and counts what it dropped, so tracing a run of any
   length costs a fixed amount of memory.

   Recording one event is: one clock read, a monotonicity clamp, and
   three array stores into pre-allocated rings — no allocation when
   the event name is a literal.  When tracing is off the engine never
   constructs a tracer and none of this code runs. *)

type kind = Begin | End | Instant

type timer = {
  t_name : string;
  t_mask : int;  (* sample one armed op in (mask+1); mask = 2^k - 1 *)
  t_gate : bool ref;  (* the owning lane's [armed]: disarmed ops cost
                         one load and branch *)
  t_clock : Clock.source;
  mutable t_ops : int;  (* armed ops seen (scale by the lane stride) *)
  mutable t_sampled : int;
  mutable t_acc_ns : int;  (* time accumulated over sampled ops *)
  mutable t_open_ns : int;  (* start of the in-flight sampled op; -1 if none *)
}

type buf = {
  lane_name : string;
  lane_id : int;
  clock : Clock.source;
  cap : int;  (* power of two *)
  kinds : Bytes.t;
  names : string array;
  stamps : int array;
  mutable head : int;  (* events ever recorded; head land (cap-1) is next slot *)
  mutable last_ns : int;  (* monotonicity clamp for this lane *)
  armed : bool ref;  (* gate shared by this lane's timers; [true] until
                        a dispatch wrapper takes over the sampling *)
  mutable stride : int;  (* ops-per-armed-op scale for the read-out *)
  mutable timers_rev : timer list;
}

type t = {
  t0_ns : int;
  clock : Clock.source;
  capacity : int;
  mu : Mutex.t;  (* guards lane registration and counter tracks *)
  mutable lanes_rev : buf list;
  mutable n_lanes : int;
  mutable tracks_rev : (string * (int * int) list) list;
}

let next_pow2 n =
  let v = ref 1 in
  while !v < n do
    v := !v lsl 1
  done;
  !v

let create ?(capacity_per_lane = 65536) ?(clock = Clock.ns) () =
  if capacity_per_lane <= 0 then
    invalid_arg "Span.create: non-positive capacity";
  {
    t0_ns = clock ();
    clock;
    capacity = next_pow2 (max 16 capacity_per_lane);
    mu = Mutex.create ();
    lanes_rev = [];
    n_lanes = 0;
    tracks_rev = [];
  }

let epoch_ns t = t.t0_ns

let lane t name =
  Mutex.lock t.mu;
  let b =
    match List.find_opt (fun b -> b.lane_name = name) t.lanes_rev with
    | Some b -> b
    | None ->
      let b =
        {
          lane_name = name;
          lane_id = t.n_lanes;
          clock = t.clock;
          cap = t.capacity;
          kinds = Bytes.make t.capacity 'B';
          names = Array.make t.capacity "";
          stamps = Array.make t.capacity 0;
          head = 0;
          last_ns = t.t0_ns;
          armed = ref true;
          stride = 1;
          timers_rev = [];
        }
      in
      t.lanes_rev <- b :: t.lanes_rev;
      t.n_lanes <- t.n_lanes + 1;
      b
  in
  Mutex.unlock t.mu;
  b

let main t = lane t "main"

(* ------------------------------------------------------------------ *)
(* recording (single writer per lane: no locking) *)

let char_of_kind = function Begin -> 'B' | End -> 'E' | Instant -> 'I'
let kind_of_char = function 'B' -> Begin | 'E' -> End | _ -> Instant

let record (b : buf) kind name =
  let ns = b.clock () in
  let ns = if ns > b.last_ns then ns else b.last_ns in
  b.last_ns <- ns;
  let i = b.head land (b.cap - 1) in
  Bytes.unsafe_set b.kinds i (char_of_kind kind);
  Array.unsafe_set b.names i name;
  Array.unsafe_set b.stamps i ns;
  b.head <- b.head + 1

let begin_span b name = record b Begin name
let end_span b name = record b End name
let instant b name = record b Instant name

let span b name f =
  begin_span b name;
  Fun.protect ~finally:(fun () -> end_span b name) f

(* ------------------------------------------------------------------ *)
(* sampled aggregate timers: per-phase attribution cheap enough for
   per-access sites.  One op in (mask+1) is timed; the estimate scales
   the sampled mean to the full op count. *)

let timer (b : buf) ~name ~mask =
  if mask < 0 || mask land (mask + 1) <> 0 then
    invalid_arg "Span.timer: mask must be 2^k - 1";
  let tm =
    {
      t_name = name;
      t_mask = mask;
      t_gate = b.armed;
      t_clock = b.clock;
      t_ops = 0;
      t_sampled = 0;
      t_acc_ns = 0;
      t_open_ns = -1;
    }
  in
  b.timers_rev <- tm :: b.timers_rev;
  tm

(* A timer that never samples: its gate is a private always-false ref,
   so [timer_start]/[timer_stop] reduce to a load and a branch once
   inlined into the caller.  That takes a build without -opaque (the
   workspace's release profile); under -opaque each is a full call.  Lets
   per-access call sites keep one unconditional code path whether or
   not a tracer was attached; never registered on a lane, never
   exported. *)
let disabled () =
  {
    t_name = "";
    t_mask = 0;
    t_gate = ref false;
    t_clock = (fun () -> 0);
    t_ops = 0;
    t_sampled = 0;
    t_acc_ns = 0;
    t_open_ns = -1;
  }

let[@inline] timer_start tm =
  if !(tm.t_gate) then begin
    tm.t_ops <- tm.t_ops + 1;
    if tm.t_ops land tm.t_mask = 0 then tm.t_open_ns <- tm.t_clock ()
  end

let[@inline] timer_stop tm =
  if tm.t_open_ns >= 0 then begin
    let d = tm.t_clock () - tm.t_open_ns in
    tm.t_acc_ns <- (tm.t_acc_ns + if d > 0 then d else 0);
    tm.t_sampled <- tm.t_sampled + 1;
    tm.t_open_ns <- -1
  end

(* The per-event sink wrapper: the event loop's sampling authority for
   its lane.  One event in [stride] is dispatched armed — this lane's
   phase timers see only those events, and the dispatch itself is
   timed — so the common (unsampled) event pays one counter, one
   branch and the call to [f].  The read-out scales every timer on the
   lane back up by [stride]. *)
let wrap_dispatch (b : buf) ~name ~stride ~on_sample f =
  if stride <= 0 || stride land (stride - 1) <> 0 then
    invalid_arg "Span.wrap_dispatch: stride must be a power of two";
  let tm = timer b ~name ~mask:0 in
  b.stride <- stride;
  b.armed := false;
  let mask = stride - 1 in
  let n = ref 0 in
  fun x ->
    let c = !n + 1 in
    n := c;
    if c land mask = 0 then begin
      b.armed := true;
      tm.t_ops <- tm.t_ops + 1;
      let t0 = tm.t_clock () in
      f x;
      let d = tm.t_clock () - t0 in
      tm.t_acc_ns <- (tm.t_acc_ns + if d > 0 then d else 0);
      tm.t_sampled <- tm.t_sampled + 1;
      b.armed := false;
      on_sample ()
    end
    else f x

let timer_time tm f =
  timer_start tm;
  match f () with
  | v ->
    timer_stop tm;
    v
  | exception e ->
    timer_stop tm;
    raise e

(* ------------------------------------------------------------------ *)
(* counter tracks: time-stamped series attached once at end of run
   (from [Recorder] samples) so the exporter is the single sink *)

let add_counter_series t ~name series =
  Mutex.lock t.mu;
  t.tracks_rev <- (name, series) :: t.tracks_rev;
  Mutex.unlock t.mu

(* ------------------------------------------------------------------ *)
(* read-out for the exporter *)

type event = { kind : kind; name : string; ns : int }

type timer_view = {
  timer_name : string;
  ops : int;
  sampled : int;
  estimate_ns : int;  (* sampled mean scaled to all ops *)
}

type lane_view = {
  lane : string;
  id : int;
  events : event list;  (* oldest surviving entry first *)
  timers : timer_view list;
  lane_dropped : int;
}

let timer_view ~stride tm =
  {
    timer_name = tm.t_name;
    ops = tm.t_ops * stride;
    sampled = tm.t_sampled;
    estimate_ns =
      (if tm.t_sampled = 0 then 0
       else
         int_of_float
           (float_of_int tm.t_acc_ns /. float_of_int tm.t_sampled
            *. float_of_int (tm.t_ops * stride)));
  }

let lane_view (b : buf) =
  let n = min b.head b.cap in
  let start = b.head - n in
  {
    lane = b.lane_name;
    id = b.lane_id;
    events =
      List.init n (fun j ->
          let i = (start + j) land (b.cap - 1) in
          {
            kind = kind_of_char (Bytes.get b.kinds i);
            name = b.names.(i);
            ns = b.stamps.(i);
          });
    timers = List.rev_map (timer_view ~stride:b.stride) b.timers_rev;
    lane_dropped = (if b.head > b.cap then b.head - b.cap else 0);
  }

let lane_views t =
  Mutex.lock t.mu;
  let lanes = t.lanes_rev in
  Mutex.unlock t.mu;
  List.rev_map lane_view lanes

let counter_tracks t =
  Mutex.lock t.mu;
  let tracks = List.rev t.tracks_rev in
  Mutex.unlock t.mu;
  tracks

let dropped t =
  List.fold_left (fun acc lv -> acc + lv.lane_dropped) 0 (lane_views t)
