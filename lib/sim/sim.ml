open Dgrace_events
module Vec = Dgrace_util.Vec
module Epoch = Dgrace_vclock.Epoch
module Int_table = Dgrace_vclock.Int_table

(* A thread that is not running: parked on a wait queue, or runnable
   in the ready queue.  [wake] resumes it. *)
type waiter = { wtid : int; wake : unit -> unit }

type mutex = { lid : int; mutable owner : int; waiters : waiter Vec.t }
type barrier = { bid : int; parties : int; arrived : waiter Vec.t }
type event_flag = { eid : int; mutable is_set : bool; ewaiters : waiter Vec.t }
type condition = { cid : int; cwaiters : waiter Vec.t }
type semaphore = { smid : int; mutable count : int; swaiters : waiter Vec.t }

type deadlock_info = { blocked : int list; held : (int * int) list }

exception Deadlock of deadlock_info

type result = {
  threads : int;
  events : int;
  accesses : int;
  total_allocated : int;
}

type thread_info = {
  tid : int;
  mutable exited : bool;
  joiners : waiter Vec.t;
}

(* Where a run's events go: one at a time to a sink, or as rows of a
   batch the run owns, handed to [consume] whenever it holds [cut]
   rows ([next n] is the length of the batch that starts after event
   [n]) and once more, with whatever is pending, before [run] returns
   or raises.  [last_loc] and [last_id] are the previous access's
   label and its id: a loop's accesses repeat one label constant, so
   most rows take their id with one pointer compare. *)
type out =
  | Sink of (Event.t -> unit)
  | Rows of rows

and rows = {
  batch : Batch.t;
  consume : Batch.t -> unit;
  next : int -> int;
  mutable cut : int;
  mutable last_loc : string;
  mutable last_id : int;
}

type world = {
  mem : Memory.t;
  out : out;
  threads : thread_info Vec.t;
  ready : waiter Vec.t;
  sched : Scheduler.t;
  atomic_syncs : int Int_table.t;  (* address -> sync id *)
  held_locks : int Int_table.t;  (* mutex id -> owner tid *)
  mutable current : int;
  mutable live : int;
  mutable events : int;
  mutable accesses : int;
  mutable syncs : int;  (* sync-object ids handed out by this run *)
}

(* Operations run on the calling thread's fiber and perform an effect
   only to give up the CPU ([Yield]), to park on a wait queue
   ([Suspend]), or to raise an exception that thread code must not see
   ([Reraise]: the handler raises it out of [run] and drops the
   continuation). *)
type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : waiter Vec.t -> unit Effect.t
  | Reraise : exn -> 'a Effect.t

(* The running simulator, set by [run] for its duration, or [no_world]
   between runs, so an operation finds its world with one load and one
   compare and no domain-local lookup.  One domain at a time simulates:
   [owner] holds its id (-1 when no run is live), claimed by the
   outermost [run] and given back when it ends.

   [no_world] is a private block that only stands for "no run" (as
   [Int_table]'s [free] slot does): every reader of [running] compares
   it with [no_world] before using it, so its fields are never read.
   A [world option] costs every operation one more load, and a real
   empty world would allocate its tables in every process. *)
let no_world : world = Obj.magic (ref ())
let running = ref no_world
let owner = Atomic.make (-1)

let[@inline never] outside_run () = raise (Effect.Unhandled Yield)

let[@inline] world () =
  let w = !running in
  if w == no_world then outside_run () else w

let reraise e = Effect.perform (Reraise e)

(* Sync-object ids are numbered per run, from 1, so a run's event
   stream does not depend on what ran before it in the process; they
   live in a namespace separate from memory addresses.  A sync object
   made outside a run would alias the next run's ids, so it is an
   error. *)
let fresh_sync_id what =
  let w = !running in
  if w == no_world then invalid_arg (what ^ ": sync objects must be created inside Sim.run");
  w.syncs <- w.syncs + 1;
  w.syncs

let mutex () = { lid = fresh_sync_id "Sim.mutex"; owner = -1; waiters = Vec.create () }

let barrier parties =
  if parties <= 0 then invalid_arg "Sim.barrier: non-positive party count";
  { bid = fresh_sync_id "Sim.barrier"; parties; arrived = Vec.create () }

let event () =
  { eid = fresh_sync_id "Sim.event"; is_set = false; ewaiters = Vec.create () }

let condition () = { cid = fresh_sync_id "Sim.condition"; cwaiters = Vec.create () }

let semaphore count =
  if count < 0 then invalid_arg "Sim.semaphore: negative count";
  { smid = fresh_sync_id "Sim.semaphore"; count; swaiters = Vec.create () }

let mutex_id m = m.lid

let thread w tid = Vec.get w.threads tid

let batch_rows r n = Int.max 1 (Int.min (r.next n) (Batch.capacity r.batch))

(* Hand the pending rows to the consumer; they are gone afterwards,
   also when it raises, so no row is delivered twice. *)
let deliver w r =
  let b = r.batch in
  r.cut <- batch_rows r w.events;
  match r.consume b with
  | () -> Batch.clear b
  | exception e ->
    Batch.clear b;
    raise e

let flush w =
  match w.out with
  | Rows r when Batch.length r.batch > 0 -> deliver w r
  | Rows _ | Sink _ -> ()

(* Mutex ownership, so a deadlock report can name the held locks
   (barrier/flag/atomic sync objects are not "held"). *)
let track_lock w ~acquire tid lock =
  if acquire then Int_table.replace w.held_locks lock tid
  else Int_table.remove w.held_locks lock

let emit w e =
  let off = w.events in
  w.events <- off + 1;
  (match e with
   | Event.Access _ -> w.accesses <- w.accesses + 1
   | Event.Acquire { tid; lock; sync = Event.Lock } ->
     track_lock w ~acquire:true tid lock
   | Event.Release { tid; lock; sync = Event.Lock } ->
     track_lock w ~acquire:false tid lock
   | _ -> ());
  match w.out with
  | Sink sink -> sink e
  | Rows r ->
    Batch.push r.batch ~off e;
    if Batch.length r.batch >= r.cut then deliver w r

(* [emit] from thread code: a sink exception (a budget stop, a detector
   error) ends the run without unwinding through the workload. *)
let emit_here w e = try emit w e with ex -> reraise ex

(* The rare ends of a row, out of line: the row emitters below make
   no call but a tail call, so their hot path spills nothing. *)
let[@inline never] deliver_here w r = try deliver w r with ex -> reraise ex

let[@inline never] check_cut w r =
  if Batch.length r.batch >= r.cut then deliver_here w r

(* The row just added names [loc], not the previous access's label. *)
let[@inline never] relabel w r loc =
  let b = r.batch in
  let id = Loc_table.intern (Batch.locs b) loc in
  r.last_loc <- loc;
  r.last_id <- id;
  Array.unsafe_set b.Batch.loc (Batch.length b - 1) id;
  check_cut w r

(* An access from thread code: a row straight into the batch, with no
   [Event.t], when the run emits rows.  The row takes the previous
   access's label id, which a loop's repeated label constant keeps
   with one pointer compare. *)
let emit_access w tid kind loc addr size =
  match w.out with
  | Rows r ->
    let off = w.events in
    w.events <- off + 1;
    w.accesses <- w.accesses + 1;
    let b = r.batch in
    Batch.add b ~off
      (match kind with Event.Read -> Batch.code_read | Event.Write -> Batch.code_write)
      tid addr size r.last_id;
    if loc != r.last_loc then relabel w r loc
    else if Batch.length b >= r.cut then deliver_here w r
  | Sink _ -> emit_here w (Event.Access { tid; kind; addr; size; loc })

let[@inline never] track_then_check w r ~acquire tid lock =
  track_lock w ~acquire tid lock;
  check_cut w r

(* An acquire or release from thread code, likewise a row when the
   run emits rows. *)
let emit_sync w ~acquire tid lock sync =
  match w.out with
  | Rows r ->
    let off = w.events in
    w.events <- off + 1;
    let b = r.batch in
    Batch.add b ~off
      (if acquire then Batch.code_acquire else Batch.code_release)
      tid lock (Batch.sync_code sync) Loc_table.empty;
    if sync = Event.Lock then track_then_check w r ~acquire tid lock
    else if Batch.length b >= r.cut then deliver_here w r
  | Sink _ ->
    emit_here w
      (if acquire then Event.Acquire { tid; lock; sync }
       else Event.Release { tid; lock; sync })

(* The preemption point every non-blocking operation ends with: keep
   running when the policy would pick this thread again, otherwise
   yield to the scheduler loop. *)
let[@inline] switch w =
  if not (Scheduler.stay w.sched ~others:(Vec.length w.ready)) then
    Effect.perform Yield

let new_thread w =
  let tid = Vec.length w.threads in
  if tid > Epoch.max_tid then
    invalid_arg
      (Printf.sprintf "Sim.spawn: more than %d threads" (Epoch.max_tid + 1));
  Vec.push w.threads { tid; exited = false; joiners = Vec.create () };
  w.live <- w.live + 1;
  tid

let park queue tid k =
  Vec.push queue { wtid = tid; wake = (fun () -> Effect.Deep.continue k ()) }

let exec w tid body =
  Effect.Deep.match_with body ()
    {
      retc =
        (fun () ->
          let ti = thread w tid in
          ti.exited <- true;
          w.live <- w.live - 1;
          emit w (Event.Thread_exit { tid });
          Vec.iter (Vec.push w.ready) ti.joiners;
          Vec.clear ti.joiners);
      exnc = raise;
      effc =
        (fun (type c) (eff : c Effect.t) :
             ((c, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Yield -> Some (fun k -> park w.ready tid k)
          | Suspend queue -> Some (fun k -> park queue tid k)
          | Reraise e -> Some (fun _ -> raise e)
          | _ -> None);
    }

(* Blocking operations emit their acquire-side event after [Suspend]
   returns, i.e. when the waker's hand-off has made the thread run
   again — the order the events happen in. *)

let self () =
  let w = world () in
  let tid = w.current in
  switch w;
  tid

let spawn body =
  let w = world () in
  let parent = w.current in
  let child = try new_thread w with e -> reraise e in
  emit_here w (Event.Fork { parent; child });
  Vec.push w.ready { wtid = child; wake = (fun () -> exec w child body) };
  switch w;
  child

let join target =
  let w = world () in
  let parent = w.current in
  let ti = try thread w target with e -> reraise e in
  if ti.exited then begin
    emit_here w (Event.Join { parent; child = target });
    switch w
  end
  else begin
    Effect.perform (Suspend ti.joiners);
    emit_here w (Event.Join { parent; child = target })
  end

let[@inline] access kind loc addr size =
  let w = world () in
  emit_access w w.current kind loc addr size;
  switch w

let read ?(loc = "") addr size = access Event.Read loc addr size
let write ?(loc = "") addr size = access Event.Write loc addr size

let lock m =
  let w = world () in
  let tid = w.current in
  let acquire () = emit_sync w ~acquire:true tid m.lid Event.Lock in
  if m.owner < 0 then begin
    m.owner <- tid;
    acquire ();
    switch w
  end
  else if m.owner = tid then invalid_arg "Sim.lock: mutex already held by caller"
  else begin
    (* the unlocker hands ownership over FIFO before waking us *)
    Effect.perform (Suspend m.waiters);
    acquire ()
  end

(* Release [m]'s ownership: hand it to the longest waiter, if any. *)
let hand_off w m =
  if Vec.length m.waiters > 0 then begin
    let wtr = Vec.remove_ordered m.waiters 0 in
    m.owner <- wtr.wtid;
    Vec.push w.ready wtr
  end
  else m.owner <- -1

let unlock m =
  let w = world () in
  let tid = w.current in
  if m.owner <> tid then invalid_arg "Sim.unlock: mutex not held by caller";
  emit_sync w ~acquire:false tid m.lid Event.Lock;
  hand_off w m;
  switch w

let with_lock m f =
  lock m;
  match f () with
  | v -> unlock m; v
  | exception e -> unlock m; raise e

let try_lock m =
  let w = world () in
  let tid = w.current in
  let acquired = m.owner < 0 in
  if acquired then begin
    m.owner <- tid;
    emit_sync w ~acquire:true tid m.lid Event.Lock
  end;
  switch w;
  acquired

let malloc ?(align = 8) size =
  let w = world () in
  let addr = try Memory.alloc w.mem ~align size with e -> reraise e in
  emit_here w (Event.Alloc { tid = w.current; addr; size });
  switch w;
  addr

let calloc ?(align = 8) ?(loc = "") size =
  let addr = malloc ~align size in
  write ~loc addr size;
  addr

let free addr =
  let w = world () in
  let size = Memory.free w.mem addr in
  emit_here w (Event.Free { tid = w.current; addr; size });
  switch w

let static_alloc ?(align = 8) size =
  let w = world () in
  let addr = try Memory.alloc_static w.mem ~align size with e -> reraise e in
  switch w;
  addr

let barrier_wait b =
  let w = world () in
  let tid = w.current in
  emit_sync w ~acquire:false tid b.bid Event.Barrier;
  if Vec.length b.arrived + 1 < b.parties then Effect.perform (Suspend b.arrived)
  else begin
    Vec.iter (Vec.push w.ready) b.arrived;
    Vec.clear b.arrived;
    switch w
  end;
  emit_sync w ~acquire:true tid b.bid Event.Barrier

let event_set f =
  let w = world () in
  emit_sync w ~acquire:false w.current f.eid Event.Flag;
  f.is_set <- true;
  Vec.iter (Vec.push w.ready) f.ewaiters;
  Vec.clear f.ewaiters;
  switch w

let event_wait f =
  let w = world () in
  let tid = w.current in
  if f.is_set then switch w else Effect.perform (Suspend f.ewaiters);
  emit_sync w ~acquire:true tid f.eid Event.Flag

(* Sync ids start at 1, so 0 marks an address with none yet. *)
let atomic_sync_id w addr =
  match Int_table.find_or w.atomic_syncs addr ~default:0 with
  | 0 ->
    let id = fresh_sync_id "Sim.atomic" in
    Int_table.replace w.atomic_syncs addr id;
    id
  | id -> id

(* One access per [kinds] entry, bracketed by an acquire/release on
   [addr]'s atomic sync object. *)
let atomic kinds loc addr size =
  let w = world () in
  let tid = w.current in
  let sid = atomic_sync_id w addr in
  emit_sync w ~acquire:true tid sid Event.Atomic;
  List.iter (fun kind -> emit_access w tid kind loc addr size) kinds;
  emit_sync w ~acquire:false tid sid Event.Atomic;
  switch w

let atomic_rmw ?(loc = "") addr size = atomic [ Event.Read; Event.Write ] loc addr size
let atomic_load ?(loc = "") addr size = atomic [ Event.Read ] loc addr size
let atomic_store ?(loc = "") addr size = atomic [ Event.Write ] loc addr size

let cond_wait c m =
  let w = world () in
  let tid = w.current in
  if m.owner <> tid then invalid_arg "Sim.cond_wait: mutex not held by caller";
  (* unlock the mutex (with hand-off), park on the condition, then
     re-acquire the mutex before returning *)
  emit_sync w ~acquire:false tid m.lid Event.Lock;
  hand_off w m;
  Effect.perform (Suspend c.cwaiters);
  emit_sync w ~acquire:true tid c.cid Event.Flag;
  if m.owner < 0 then m.owner <- tid else Effect.perform (Suspend m.waiters);
  emit_sync w ~acquire:true tid m.lid Event.Lock

let cond_wake c ~broadcast =
  let w = world () in
  emit_sync w ~acquire:false w.current c.cid Event.Flag;
  if broadcast then begin
    Vec.iter (Vec.push w.ready) c.cwaiters;
    Vec.clear c.cwaiters
  end
  else if Vec.length c.cwaiters > 0 then Vec.push w.ready (Vec.remove_ordered c.cwaiters 0);
  switch w

let cond_signal c = cond_wake c ~broadcast:false
let cond_broadcast c = cond_wake c ~broadcast:true

let sem_wait s =
  let w = world () in
  let tid = w.current in
  let acquire () = emit_sync w ~acquire:true tid s.smid Event.Flag in
  if s.count > 0 then begin
    s.count <- s.count - 1;
    acquire ();
    switch w
  end
  else begin
    (* the poster hands its permit straight to us *)
    Effect.perform (Suspend s.swaiters);
    acquire ()
  end

let sem_post s =
  let w = world () in
  emit_sync w ~acquire:false w.current s.smid Event.Flag;
  if Vec.length s.swaiters > 0 then Vec.push w.ready (Vec.remove_ordered s.swaiters 0)
  else s.count <- s.count + 1;
  switch w

let yield () = switch (world ())

let deadlock w =
  let blocked =
    Vec.fold_left
      (fun acc ti -> if ti.exited then acc else ti.tid :: acc)
      [] w.threads
  in
  let held = ref [] in
  Int_table.iter (fun lock owner -> held := (lock, owner) :: !held) w.held_locks;
  let held = List.sort compare !held in
  Deadlock { blocked = List.rev blocked; held }

let rec loop w =
  let n = Vec.length w.ready in
  if n = 0 then begin if w.live > 0 then raise (deadlock w) end
  else begin
    let i =
      Scheduler.pick w.sched ~current:w.current
        ~ready_tids:(fun i -> (Vec.get w.ready i).wtid)
        ~n
    in
    let r = Vec.remove_ordered w.ready i in
    w.current <- r.wtid;
    r.wake ();
    loop w
  end

(* Claim the world for this domain: the outermost run takes [owner],
   a nested run on the same domain already holds it. *)
let claim () =
  let me = (Domain.self () :> int) in
  if Atomic.get owner <> me && not (Atomic.compare_and_set owner (-1) me) then
    invalid_arg "Sim.run: another domain is running a simulation"

let run_to out ~policy main =
  let w =
    {
      mem = Memory.create ();
      out;
      threads = Vec.create ();
      ready = Vec.create ();
      sched = Scheduler.create policy;
      atomic_syncs = Int_table.create 64;
      held_locks = Int_table.create 16;
      current = -1;
      live = 0;
      events = 0;
      accesses = 0;
      syncs = 0;
    }
  in
  claim ();
  let outer = !running in
  running := w;
  Fun.protect
    ~finally:(fun () ->
      running := outer;
      if outer == no_world then Atomic.set owner (-1))
    (fun () ->
      let main_tid = new_thread w in
      Vec.push w.ready { wtid = main_tid; wake = (fun () -> exec w main_tid main) };
      (match loop w with
       | () -> flush w
       | exception e ->
         (* the rows before the failure reach the consumer first; an
            exception it raises (a budget stop) replaces [e] *)
         let bt = Printexc.get_raw_backtrace () in
         flush w;
         Printexc.raise_with_backtrace e bt);
      {
        threads = Vec.length w.threads;
        events = w.events;
        accesses = w.accesses;
        total_allocated = Memory.total_allocated w.mem;
      })

let run ?(policy = Scheduler.default) ?(sink = fun (_ : Event.t) -> ()) main =
  run_to (Sink sink) ~policy main

let run_batches ?(policy = Scheduler.default)
    ?(rows = fun (_ : int) -> Batch.default_capacity) ~consume main =
  let r =
    {
      batch = Batch.create ();
      consume;
      next = rows;
      cut = 0;
      last_loc = "";
      last_id = Loc_table.empty;
    }
  in
  r.cut <- batch_rows r 0;
  run_to (Rows r) ~policy main
