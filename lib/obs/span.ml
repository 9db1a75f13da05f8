(* Span tracing: a flight recorder of begin/end/instant events in one
   bounded ring per tracer.

   The ring has exactly one writer — the domain running the analysis —
   so recording takes no lock.  It overwrites its oldest entries when
   full and counts what it dropped, so tracing a run of any length
   costs a fixed amount of memory.

   Recording one event is: one clock read, a monotonicity clamp, and
   three array stores into pre-allocated rings — no allocation when
   the event name is a literal.  When tracing is off the engine never
   constructs a tracer and none of this code runs. *)

type kind = Begin | End | Instant

type buf = {
  clock : Clock.source;
  cap : int;  (* power of two *)
  kinds : Bytes.t;
  names : string array;
  stamps : int array;
  mutable head : int;  (* events ever recorded; head land (cap-1) is next slot *)
  mutable last_ns : int;  (* monotonicity clamp *)
}

type t = {
  t0_ns : int;
  ring : buf;
  mutable tracks_rev : counters list;
}

and counters = {
  track : string;
  series : string list;
  samples : (int * int array) list;
}

let next_pow2 n =
  let v = ref 1 in
  while !v < n do
    v := !v lsl 1
  done;
  !v

let create ?(capacity = 16384) ?(clock = Clock.ns) () =
  if capacity <= 0 then invalid_arg "Span.create: non-positive capacity";
  let cap = next_pow2 (max 16 capacity) in
  let t0_ns = clock () in
  {
    t0_ns;
    ring =
      {
        clock;
        cap;
        kinds = Bytes.make cap 'B';
        names = Array.make cap "";
        stamps = Array.make cap 0;
        head = 0;
        last_ns = t0_ns;
      };
    tracks_rev = [];
  }

let epoch_ns t = t.t0_ns
let main t = t.ring

(* ------------------------------------------------------------------ *)
(* recording (single writer: no locking) *)

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
(* counter tracks: time-stamped series attached once at end of run
   (from [Recorder] samples) so the exporter is the single sink *)

let add_counters t ~name ~series samples =
  t.tracks_rev <- { track = name; series; samples } :: t.tracks_rev

(* ------------------------------------------------------------------ *)
(* read-out for the exporter *)

type event = { kind : kind; name : string; ns : int }

let iter_events t f =
  let b = t.ring in
  for j = max 0 (b.head - b.cap) to b.head - 1 do
    let i = j land (b.cap - 1) in
    f { kind = kind_of_char (Bytes.get b.kinds i); name = b.names.(i); ns = b.stamps.(i) }
  done

let counter_tracks t = List.rev t.tracks_rev
let dropped t = if t.ring.head > t.ring.cap then t.ring.head - t.ring.cap else 0
