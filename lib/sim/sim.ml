open Dgrace_events
module Vec = Dgrace_util.Vec
module Epoch = Dgrace_vclock.Epoch

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

type world = {
  mem : Memory.t;
  sink : Event.t -> unit;
  threads : thread_info Vec.t;
  ready : waiter Vec.t;
  sched : Scheduler.t;
  atomic_syncs : (int, int) Hashtbl.t;
  held_locks : (int, int) Hashtbl.t;  (* mutex id -> owner tid *)
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

(* The running simulator, set by [run] for its duration. *)
let current_world : world option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let world () =
  match Domain.DLS.get current_world with
  | Some w -> w
  | None -> raise (Effect.Unhandled Yield)

let reraise e = Effect.perform (Reraise e)

(* Sync-object ids are numbered per run, from 1, so a run's event
   stream does not depend on what ran before it in the process; they
   live in a namespace separate from memory addresses.  A sync object
   made outside a run would alias the next run's ids, so it is an
   error. *)
let fresh_sync_id what =
  match Domain.DLS.get current_world with
  | Some w ->
    w.syncs <- w.syncs + 1;
    w.syncs
  | None -> invalid_arg (what ^ ": sync objects must be created inside Sim.run")

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

let emit w e =
  w.events <- w.events + 1;
  (match e with
   | Event.Access _ -> w.accesses <- w.accesses + 1
   (* track mutex ownership so a deadlock report can name the held
      locks (barrier/flag/atomic sync objects are not "held") *)
   | Event.Acquire { tid; lock; sync = Event.Lock } ->
     Hashtbl.replace w.held_locks lock tid
   | Event.Release { lock; sync = Event.Lock; _ } ->
     Hashtbl.remove w.held_locks lock
   | _ -> ());
  w.sink e

(* [emit] from thread code: a sink exception (a budget stop, a detector
   error) ends the run without unwinding through the workload. *)
let emit_here w e = try emit w e with ex -> reraise ex

(* The preemption point every non-blocking operation ends with: keep
   running when the policy would pick this thread again, otherwise
   yield to the scheduler loop. *)
let switch w =
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

let access kind loc addr size =
  let w = world () in
  emit_here w (Event.Access { tid = w.current; kind; addr; size; loc });
  switch w

let read ?(loc = "") addr size = access Event.Read loc addr size
let write ?(loc = "") addr size = access Event.Write loc addr size

let lock m =
  let w = world () in
  let tid = w.current in
  let acquire () = emit_here w (Event.Acquire { tid; lock = m.lid; sync = Event.Lock }) in
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
  emit_here w (Event.Release { tid; lock = m.lid; sync = Event.Lock });
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
    emit_here w (Event.Acquire { tid; lock = m.lid; sync = Event.Lock })
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
  emit_here w (Event.Release { tid; lock = b.bid; sync = Event.Barrier });
  if Vec.length b.arrived + 1 < b.parties then Effect.perform (Suspend b.arrived)
  else begin
    Vec.iter (Vec.push w.ready) b.arrived;
    Vec.clear b.arrived;
    switch w
  end;
  emit_here w (Event.Acquire { tid; lock = b.bid; sync = Event.Barrier })

let event_set f =
  let w = world () in
  emit_here w (Event.Release { tid = w.current; lock = f.eid; sync = Event.Flag });
  f.is_set <- true;
  Vec.iter (Vec.push w.ready) f.ewaiters;
  Vec.clear f.ewaiters;
  switch w

let event_wait f =
  let w = world () in
  let tid = w.current in
  if f.is_set then switch w else Effect.perform (Suspend f.ewaiters);
  emit_here w (Event.Acquire { tid; lock = f.eid; sync = Event.Flag })

let atomic_sync_id w addr =
  match Hashtbl.find_opt w.atomic_syncs addr with
  | Some id -> id
  | None ->
    let id = fresh_sync_id "Sim.atomic" in
    Hashtbl.replace w.atomic_syncs addr id;
    id

(* One access per [kinds] entry, bracketed by an acquire/release on
   [addr]'s atomic sync object. *)
let atomic kinds loc addr size =
  let w = world () in
  let tid = w.current in
  let sid = atomic_sync_id w addr in
  emit_here w (Event.Acquire { tid; lock = sid; sync = Event.Atomic });
  List.iter
    (fun kind -> emit_here w (Event.Access { tid; kind; addr; size; loc }))
    kinds;
  emit_here w (Event.Release { tid; lock = sid; sync = Event.Atomic });
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
  emit_here w (Event.Release { tid; lock = m.lid; sync = Event.Lock });
  hand_off w m;
  Effect.perform (Suspend c.cwaiters);
  emit_here w (Event.Acquire { tid; lock = c.cid; sync = Event.Flag });
  if m.owner < 0 then m.owner <- tid else Effect.perform (Suspend m.waiters);
  emit_here w (Event.Acquire { tid; lock = m.lid; sync = Event.Lock })

let cond_wake c ~broadcast =
  let w = world () in
  emit_here w (Event.Release { tid = w.current; lock = c.cid; sync = Event.Flag });
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
  let acquire () = emit_here w (Event.Acquire { tid; lock = s.smid; sync = Event.Flag }) in
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
  emit_here w (Event.Release { tid = w.current; lock = s.smid; sync = Event.Flag });
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
  let held =
    Hashtbl.fold (fun lock owner acc -> (lock, owner) :: acc) w.held_locks []
    |> List.sort compare
  in
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

let run ?(policy = Scheduler.default) ?(sink = fun (_ : Event.t) -> ()) main =
  let w =
    {
      mem = Memory.create ();
      sink;
      threads = Vec.create ();
      ready = Vec.create ();
      sched = Scheduler.create policy;
      atomic_syncs = Hashtbl.create 64;
      held_locks = Hashtbl.create 16;
      current = -1;
      live = 0;
      events = 0;
      accesses = 0;
      syncs = 0;
    }
  in
  let outer = Domain.DLS.get current_world in
  Domain.DLS.set current_world (Some w);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current_world outer)
    (fun () ->
      let main_tid = new_thread w in
      Vec.push w.ready { wtid = main_tid; wake = (fun () -> exec w main_tid main) };
      loop w;
      {
        threads = Vec.length w.threads;
        events = w.events;
        accesses = w.accesses;
        total_allocated = Memory.total_allocated w.mem;
      })
