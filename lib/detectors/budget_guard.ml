open Dgrace_events
module Budget = Dgrace_resilience.Budget
module Accounting = Dgrace_shadow.Accounting

exception Stop of Budget.stop

type t = {
  max_events : int;  (* [max_int] when unlimited *)
  max_shadow_bytes : int option;
  deadline_s : float option;
  note : unit -> unit;
  every : int;  (* heartbeat period; [max_int] without a heartbeat *)
  beat : int -> unit;
  now_s : unit -> float;
  t0 : float;
  mutable events : int;
  mutable degraded : bool;
}

let create ?(note = fun () -> ()) ?progress ~now_s ~t0 (b : Budget.t) =
  let every, beat =
    match progress with
    | Some (every, _) when every < 1 ->
      invalid_arg "Budget_guard.create: progress period must be positive"
    | Some (every, f) -> (every, f)
    | None -> (max_int, fun (_ : int) -> ())
  in
  {
    max_events = Option.value b.Budget.max_events ~default:max_int;
    max_shadow_bytes = b.Budget.max_shadow_bytes;
    deadline_s = b.Budget.deadline_s;
    note;
    every;
    beat;
    now_s;
    t0;
    events = 0;
    degraded = false;
  }

let events g = g.events
let degraded g = g.degraded

(* Shadow pressure is answered one shedding step at a time; the run
   stops only once the detector can shed nothing more and is still
   over the cap. *)
let rec shed_to g (d : Detector.t) limit =
  let account = d.account in
  if Accounting.current_bytes account > limit then
    match d.degrade with
    | Some step when step () ->
      g.degraded <- true;
      g.note ();
      shed_to g d limit
    | Some _ | None ->
      raise
        (Stop
           (Budget.Shadow_bytes
              { limit; bytes = Accounting.current_bytes account }))

let shed g d =
  match g.max_shadow_bytes with Some limit -> shed_to g d limit | None -> ()

let check_deadline g =
  match g.deadline_s with
  | None -> ()
  | Some limit_s ->
    let elapsed_s = g.now_s () -. g.t0 in
    if elapsed_s > limit_s then
      raise (Stop (Budget.Deadline { limit_s; elapsed_s }))

let spent g = Stop (Budget.Max_events { limit = g.max_events })

let event g d deliver ev =
  if g.events >= g.max_events then raise (spent g);
  deliver ev;
  let n = g.events + 1 in
  g.events <- n;
  shed g d;
  (* the clock read stays off the per-event path *)
  if n land 255 = 0 then check_deadline g;
  if n mod g.every = 0 then g.beat n

(* The checks after a batch that took the count from [before] to
   [g.events]: one heartbeat per multiple of [every] crossed, so a
   batched stream prints the same lines as a per-event one. *)
let after_batch g d ~before =
  shed g d;
  check_deadline g;
  for k = (before / g.every) + 1 to g.events / g.every do
    g.beat (k * g.every)
  done

let batch g d apply b =
  let n = Batch.length b in
  let room = g.max_events - g.events in
  let before = g.events in
  if n <= room then begin
    apply b;
    g.events <- before + n;
    after_batch g d ~before
  end
  else begin
    (* event [max_events + 1] is in this batch: apply the rows before
       it, run the checks a per-event stream would have run, stop *)
    if room > 0 then begin
      let prefix = Batch.create ~capacity:room ~locs:(Batch.locs b) () in
      for i = 0 to room - 1 do
        Batch.copy_row ~src:b i ~dst:prefix
      done;
      apply prefix;
      g.events <- g.max_events;
      after_batch g d ~before
    end;
    raise (spent g)
  end
