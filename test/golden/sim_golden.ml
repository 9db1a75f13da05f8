(* Golden schedule digests for the cooperative simulator.

   A fixed set of [Sim.run] invocations — every workload at scale 1
   under five scheduling policies, plus random programs over the whole
   [Sim] API (misuse and deadlocks included) — each reduced to one
   line: the number of events delivered, an MD5 of the canonical event
   text, and the outcome ([Sim.result], the [Deadlock] payload, or the
   escaping exception).

   Sync-object ids come from a process-wide counter, so the canonical
   text renames them to first-use order within the run; everything
   else (tids, addresses, sizes, locations) is printed as
   [Event.to_string] prints it.

   The checked-in table (sim_golden.txt) is the oracle of the
   [sim.golden] test.  It was produced by gen_sim_golden.exe and is
   never regenerated to make a simulator change pass: a mismatch means
   the change altered a schedule. *)

open Dgrace_events
open Dgrace_sim
module Workload = Dgrace_workloads.Workload
module Registry = Dgrace_workloads.Registry

(* ------------------------------------------------------------------ *)
(* digesting one run *)

let canonical () =
  let ids = Hashtbl.create 16 in
  let rename l =
    match Hashtbl.find_opt ids l with
    | Some x -> x
    | None ->
      let x = Hashtbl.length ids in
      Hashtbl.replace ids l x;
      x
  in
  let event = function
    | Event.Acquire a -> Event.Acquire { a with lock = rename a.lock }
    | Event.Release r -> Event.Release { r with lock = rename r.lock }
    | e -> e
  in
  (rename, event)

let digest ?policy program =
  let rename, canon = canonical () in
  let buf = Buffer.create 4096 in
  let events = ref 0 in
  let sink e =
    incr events;
    Buffer.add_string buf (Event.to_string (canon e));
    Buffer.add_char buf '\n'
  in
  let outcome =
    match Sim.run ?policy ~sink program with
    | (r : Sim.result) ->
      Printf.sprintf "ok threads=%d events=%d accesses=%d allocated=%d"
        r.threads r.events r.accesses r.total_allocated
    | exception Sim.Deadlock { blocked; held } ->
      Printf.sprintf "deadlock blocked=[%s] held=[%s]"
        (String.concat ";" (List.map string_of_int blocked))
        (String.concat ";"
           (List.map
              (fun (l, o) -> Printf.sprintf "l%d@t%d" (rename l) o)
              held))
    | exception e -> "raised " ^ String.escaped (Printexc.to_string e)
  in
  Printf.sprintf "n=%d md5=%s %s" !events
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    outcome

(* ------------------------------------------------------------------ *)
(* workloads *)

let policies seed =
  [
    ("rr", Scheduler.Round_robin);
    ("rand5", Scheduler.Random_each 5);
    ("chunk1", Scheduler.Chunked { seed; chunk = 1 });
    ("chunk8", Scheduler.Chunked { seed; chunk = 8 });
    ("chunk64", Scheduler.Chunked { seed; chunk = 64 });
  ]

let workload_cases () =
  List.concat_map
    (fun (w : Workload.t) ->
      List.concat_map
        (fun seed ->
          List.map
            (fun (pname, policy) ->
              let params = Workload.with_params ~scale:1 ~seed w in
              ( Printf.sprintf "%s/s%d/%s" w.name seed pname,
                fun () -> digest ~policy (w.program params) ))
            (policies seed))
        [ 1; 2; 3 ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* random programs *)

type op =
  | Rd of int  (** static slot *)
  | Wr of int
  | Atomic of int * int  (** 0 load, 1 store, 2 rmw; slot *)
  | Lock of int
  | Unlock of int
  | With_lock of int * op list
  | Try_lock of int * op list  (** body and unlock only when acquired *)
  | Malloc of int * int  (** heap cell, size (0 is a misuse) *)
  | Calloc of int * int
  | Free of int  (** heap cell, when allocated; freeing it twice is a misuse *)
  | Heap of bool * int * int  (** write?, heap cell, offset *)
  | Spawn of op list
  | Join_child  (** oldest child not yet joined *)
  | Join_tid of int  (** raw tid: self-joins and bogus ids *)
  | Barrier of int
  | Set of int
  | Wait of int
  | Cond_wait of int * int  (** condition, mutex *)
  | Signal of int
  | Broadcast of int
  | Sem_wait of int
  | Sem_post of int
  | Yield
  | Self
  | Static of int  (** size (0 is a misuse) *)
  | Loop of int * op list

type shape = {
  mutexes : int;
  barrier_parties : int array;
  sem_counts : int array;
  body : op list;
}

let n_slots = 8
let n_cells = 4
let n_flags = 2
let n_conds = 2

let gen_shape rng =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let pick n = Random.State.int rng n in
  let mutexes = int 1 3 in
  let barrier_parties = Array.init 2 (fun _ -> int 1 3) in
  let sem_counts = Array.init 2 (fun _ -> int 0 1) in
  (* weighted choice (per mille) over the op constructors; misuse ops
     are rare so most programs run for a while first.  Depth bounds
     nesting and stops spawning below the grandchildren; [held] lists
     the mutexes the enclosing brackets hold, so nested brackets take
     other mutexes (a relock comes only from the bare [Lock]). *)
  let free_mutex held =
    match List.filter (fun m -> not (List.mem m held)) (List.init mutexes Fun.id) with
    | [] -> None
    | l -> Some (List.nth l (pick (List.length l)))
  in
  let rec ops ?(held = []) depth n = List.init n (fun _ -> op held depth)
  and body held depth = ops ~held (depth + 1) (int 0 4)
  and op held depth =
    let r = Random.State.int rng 1000 in
    if r < 160 then Rd (pick n_slots)
    else if r < 300 then Wr (pick n_slots)
    else if r < 340 then Atomic (pick 3, pick n_slots)
    else if r < 344 then Lock (pick mutexes)
    else if r < 348 then Unlock (pick mutexes)
    else if r < 450 then begin
      match free_mutex held with
      | Some m when depth < 3 -> With_lock (m, body (m :: held) depth)
      | _ -> Yield
    end
    else if r < 480 then begin
      match free_mutex held with
      | Some m when depth < 3 -> Try_lock (m, body (m :: held) depth)
      | _ -> Try_lock (pick mutexes, [])
    end
    else if r < 520 then
      Malloc (pick n_cells, if Random.State.int rng 100 = 0 then 0 else int 1 64)
    else if r < 540 then Calloc (pick n_cells, int 1 32)
    else if r < 560 then Free (pick n_cells)
    else if r < 640 then Heap (Random.State.bool rng, pick n_cells, pick 4)
    else if r < 700 then
      if depth < 2 then Spawn (ops (depth + 1) (int 2 12)) else Rd (pick n_slots)
    else if r < 740 then Join_child
    else if r < 743 then Join_tid (List.nth [ 0; 1; 2; 99 ] (pick 4))
    else if r < 752 then Barrier (pick 2)
    else if r < 775 then Set (pick n_flags)
    else if r < 783 then Wait (pick n_flags)
    else if r < 795 then begin
      let c = pick n_conds in
      (* mostly the correct bracket; sometimes the bare misuse *)
      match (held, free_mutex held) with
      | m :: _, _ -> Cond_wait (c, m)
      | [], Some m when Random.State.int rng 8 <> 0 ->
        With_lock (m, [ Cond_wait (c, m) ])
      | _ -> Cond_wait (c, pick mutexes)
    end
    else if r < 840 then Signal (pick n_conds)
    else if r < 852 then Broadcast (pick n_conds)
    else if r < 860 then Sem_wait (pick 2)
    else if r < 900 then Sem_post (pick 2)
    else if r < 920 then Yield
    else if r < 930 then Self
    else if r < 940 then Static (if Random.State.int rng 10 = 0 then 0 else int 1 16)
    else if depth < 3 then Loop (int 2 5, body held depth)
    else Wr (pick n_slots)
  in
  { mutexes; barrier_parties; sem_counts; body = ops 0 (int 6 24) }

(* The program closure builds its sync objects afresh on every run
   (flags and semaphores keep state across runs). *)
let program shape () =
  let mutexes = Array.init shape.mutexes (fun _ -> Sim.mutex ()) in
  let barriers = Array.map Sim.barrier shape.barrier_parties in
  let flags = Array.init n_flags (fun _ -> Sim.event ()) in
  let conds = Array.init n_conds (fun _ -> Sim.condition ()) in
  let sems = Array.map Sim.semaphore shape.sem_counts in
  let statics = Sim.static_alloc (4 * n_slots) in
  let cells = Array.make n_cells 0 in
  let slot i = statics + (4 * i) in
  let loc = "golden" in
  let rec thread body () =
    let children = Queue.create () in
    let rec exec = function
      | Rd i -> Sim.read ~loc (slot i) 4
      | Wr i -> Sim.write ~loc (slot i) 4
      | Atomic (0, i) -> Sim.atomic_load (slot i) 4
      | Atomic (1, i) -> Sim.atomic_store (slot i) 4
      | Atomic (_, i) -> Sim.atomic_rmw ~loc (slot i) 4
      | Lock m -> Sim.lock mutexes.(m)
      | Unlock m -> Sim.unlock mutexes.(m)
      | With_lock (m, ops) -> Sim.with_lock mutexes.(m) (fun () -> List.iter exec ops)
      | Try_lock (m, ops) ->
        if Sim.try_lock mutexes.(m) then begin
          List.iter exec ops;
          Sim.unlock mutexes.(m)
        end
      | Malloc (c, size) -> cells.(c) <- Sim.malloc size
      | Calloc (c, size) -> cells.(c) <- Sim.calloc ~loc size
      | Free c -> if cells.(c) <> 0 then Sim.free cells.(c)
      | Heap (w, c, off) ->
        if cells.(c) <> 0 then
          (if w then Sim.write else Sim.read) (cells.(c) + off) 1
      | Spawn ops -> Queue.push (Sim.spawn (thread ops)) children
      | Join_child -> Option.iter Sim.join (Queue.take_opt children)
      | Join_tid t -> Sim.join t
      | Barrier b -> Sim.barrier_wait barriers.(b)
      | Set f -> Sim.event_set flags.(f)
      | Wait f -> Sim.event_wait flags.(f)
      | Cond_wait (c, m) -> Sim.cond_wait conds.(c) mutexes.(m)
      | Signal c -> Sim.cond_signal conds.(c)
      | Broadcast c -> Sim.cond_broadcast conds.(c)
      | Sem_wait s -> Sim.sem_wait sems.(s)
      | Sem_post s -> Sim.sem_post sems.(s)
      | Yield -> Sim.yield ()
      | Self -> ignore (Sim.self ())
      | Static size -> ignore (Sim.static_alloc size)
      | Loop (n, ops) -> for _ = 1 to n do List.iter exec ops done
    in
    List.iter exec body;
    Queue.iter Sim.join children
  in
  thread shape.body ()

let n_programs = 200

let program_policies i =
  [
    ("rr", Scheduler.Round_robin);
    ("rand", Scheduler.Random_each i);
    ("chunk3", Scheduler.Chunked { seed = i; chunk = 3 });
  ]

let program_cases () =
  List.concat_map
    (fun i ->
      let shape = gen_shape (Random.State.make [| 0x5eed; i |]) in
      List.map
        (fun (pname, policy) ->
          ( Printf.sprintf "prog%03d/%s" i pname,
            fun () -> digest ~policy (program shape) ))
        (program_policies i))
    (List.init n_programs Fun.id)

let cases () = workload_cases () @ program_cases ()

let line (name, run) = name ^ " " ^ run ()
