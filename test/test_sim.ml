(* The cooperative simulator: event correctness, scheduling
   determinism, synchronisation semantics, memory allocator. *)

open Dgrace_sim
open Dgrace_events

let record ?policy prog =
  let events = ref [] in
  let r = Sim.run ?policy ~sink:(fun e -> events := e :: !events) prog in
  (r, List.rev !events)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_event_order_single_thread () =
  let _, evs = record (fun () ->
      let a = Sim.malloc 8 in
      Sim.write a 4;
      Sim.read a 4;
      Sim.free a)
  in
  let kinds = List.map (function
      | Event.Alloc _ -> "alloc" | Event.Access { kind = Write; _ } -> "w"
      | Event.Access { kind = Read; _ } -> "r" | Event.Free _ -> "free"
      | Event.Thread_exit _ -> "exit" | _ -> "?") evs
  in
  Alcotest.(check (list string)) "order" [ "alloc"; "w"; "r"; "free"; "exit" ] kinds

let test_result_counters () =
  let r, _ = record (fun () ->
      let a = Sim.malloc 100 in
      Sim.write a 4;
      let t = Sim.spawn (fun () -> Sim.read a 4) in
      Sim.join t;
      Sim.free a)
  in
  check_int "threads" 2 r.threads;
  check_int "accesses" 2 r.accesses;
  check_int "allocated" 100 r.total_allocated

let test_determinism () =
  let prog () =
    let a = Sim.static_alloc 64 in
    let m = Sim.mutex () in
    let ts = List.init 3 (fun i -> Sim.spawn (fun () ->
        for k = 0 to 9 do
          Sim.with_lock m (fun () -> Sim.write (a + 4 * ((i + k) mod 16)) 4)
        done))
    in
    List.iter Sim.join ts
  in
  let same policy =
    let _, e1 = record ~policy prog in
    let _, e2 = record ~policy prog in
    List.map Event.to_string e1 = List.map Event.to_string e2
  in
  check_bool "round robin deterministic" true (same Scheduler.Round_robin);
  check_bool "random deterministic per seed" true (same (Scheduler.Random_each 7));
  check_bool "chunked deterministic per seed" true
    (same (Scheduler.Chunked { seed = 3; chunk = 16 }))


(* Sync-object ids are numbered per run: the same program emits the
   same raw stream (lock, barrier, flag and atomic ids included)
   whatever ran before it in the process. *)
let test_sync_ids_per_run () =
  let prog () =
    let a = Sim.static_alloc 16 in
    let m = Sim.mutex () and b = Sim.barrier 2 and f = Sim.event () in
    let t = Sim.spawn (fun () ->
        Sim.with_lock m (fun () -> Sim.write a 4);
        Sim.atomic_store (a + 8) 4;
        Sim.event_set f;
        Sim.barrier_wait b)
    in
    Sim.event_wait f;
    Sim.atomic_rmw (a + 8) 4;
    Sim.barrier_wait b;
    Sim.with_lock m (fun () -> Sim.read a 4);
    Sim.join t
  in
  let stream () = List.map Event.to_string (snd (record prog)) in
  let first = stream () in
  (* an unrelated run that makes sync objects of its own *)
  ignore (Sim.run (fun () -> ignore (List.init 50 (fun _ -> Sim.mutex ()))));
  Alcotest.(check (list string)) "identical raw streams" first (stream ());
  Alcotest.check_raises "constructor outside a run"
    (Invalid_argument "Sim.mutex: sync objects must be created inside Sim.run")
    (fun () -> ignore (Sim.mutex ()))

let test_policies_differ () =
  let prog () =
    let a = Sim.static_alloc 8 in
    let ts = List.init 2 (fun _ -> Sim.spawn (fun () ->
        for _ = 0 to 9 do Sim.write a 4 done))
    in
    List.iter Sim.join ts
  in
  let _, e1 = record ~policy:(Scheduler.Random_each 1) prog in
  let _, e2 = record ~policy:(Scheduler.Random_each 2) prog in
  check_bool "different seeds interleave differently" true
    (List.map Event.to_string e1 <> List.map Event.to_string e2)

let test_mutex_mutual_exclusion () =
  (* replaying the event stream, the lock is never acquired while held *)
  let m = ref None in
  let prog () =
    let mu = Sim.mutex () in
    m := Some mu;
    let a = Sim.static_alloc 4 in
    let ts = List.init 4 (fun _ -> Sim.spawn (fun () ->
        for _ = 0 to 19 do Sim.with_lock mu (fun () -> Sim.write a 4) done))
    in
    List.iter Sim.join ts
  in
  let _, evs = record ~policy:(Scheduler.Random_each 5) prog in
  let lid = Sim.mutex_id (Option.get !m) in
  let held = ref (-1) in
  List.iter
    (function
      | Event.Acquire { tid; lock; _ } when lock = lid ->
        check_int "acquired only when free" (-1) !held;
        held := tid
      | Event.Release { tid; lock; _ } when lock = lid ->
        check_int "released by holder" tid !held;
        held := -1
      | _ -> ())
    evs

let test_lock_error_cases () =
  Alcotest.check_raises "relock" (Invalid_argument "Sim.lock: mutex already held by caller")
    (fun () ->
      ignore (Sim.run (fun () ->
          let m = Sim.mutex () in
          Sim.lock m;
          Sim.lock m)));
  Alcotest.check_raises "unlock not held" (Invalid_argument "Sim.unlock: mutex not held by caller")
    (fun () -> ignore (Sim.run (fun () -> Sim.unlock (Sim.mutex ()))))

let test_deadlock_detection () =
  let raised = ref false in
  (try
     ignore (Sim.run ~policy:Scheduler.Round_robin (fun () ->
         let m1 = Sim.mutex () and m2 = Sim.mutex () in
         let t = Sim.spawn (fun () ->
             Sim.lock m2;
             Sim.yield ();
             Sim.lock m1;
             Sim.unlock m1;
             Sim.unlock m2)
         in
         Sim.lock m1;
         Sim.yield ();
         Sim.lock m2;
         Sim.unlock m2;
         Sim.unlock m1;
         Sim.join t))
   with Sim.Deadlock { blocked; held } ->
     raised := true;
     check_int "both threads blocked" 2 (List.length blocked);
     check_int "both locks held" 2 (List.length held));
  check_bool "deadlock raised" true !raised

let test_join_semantics () =
  let order = ref [] in
  let _, _ = record (fun () ->
      let t = Sim.spawn (fun () -> order := "child" :: !order) in
      Sim.join t;
      order := "parent" :: !order)
  in
  Alcotest.(check (list string)) "join waits" [ "parent"; "child" ] !order

let test_join_already_exited () =
  let _, evs = record (fun () ->
      let t = Sim.spawn (fun () -> ()) in
      (* let the child run to completion first *)
      for _ = 0 to 5 do Sim.yield () done;
      Sim.join t)
  in
  let joins = List.filter (function Event.Join _ -> true | _ -> false) evs in
  check_int "join event emitted" 1 (List.length joins)

let test_barrier_all_arrive_before_depart () =
  let prog () =
    let b = Sim.barrier 3 in
    let ts = List.init 2 (fun _ -> Sim.spawn (fun () -> Sim.barrier_wait b)) in
    Sim.barrier_wait b;
    List.iter Sim.join ts
  in
  let _, evs = record ~policy:(Scheduler.Random_each 11) prog in
  (* all three releases (arrivals) precede all three acquires (departures) *)
  let seq = List.filter_map (function
      | Event.Release { sync = Event.Barrier; _ } -> Some `R
      | Event.Acquire { sync = Event.Barrier; _ } -> Some `A
      | _ -> None) evs
  in
  Alcotest.(check (list bool)) "arrivals before departures"
    [ true; true; true; false; false; false ]
    (List.map (fun x -> x = `R) seq)

let test_barrier_reusable () =
  let counter = ref 0 in
  let _, _ = record (fun () ->
      let b = Sim.barrier 2 in
      let t = Sim.spawn (fun () ->
          Sim.barrier_wait b;
          Sim.barrier_wait b;
          incr counter)
      in
      Sim.barrier_wait b;
      Sim.barrier_wait b;
      incr counter;
      Sim.join t)
  in
  check_int "both passed two generations" 2 !counter

let test_event_flag () =
  let seen = ref false in
  let _, _ = record (fun () ->
      let f = Sim.event () in
      let t = Sim.spawn (fun () -> Sim.event_wait f; seen := true) in
      for _ = 0 to 3 do Sim.yield () done;
      check_bool "waiter blocked until set" false !seen;
      Sim.event_set f;
      Sim.join t)
  in
  check_bool "woken after set" true !seen

let test_try_lock () =
  let results = ref [] in
  let _, evs = record (fun () ->
      let m = Sim.mutex () in
      Sim.lock m;
      let t = Sim.spawn (fun () -> results := Sim.try_lock m :: !results) in
      Sim.join t;
      Sim.unlock m;
      results := Sim.try_lock m :: !results;
      Sim.unlock m)
  in
  Alcotest.(check (list bool)) "busy then free" [ true; false ] !results;
  let acquires = List.length (List.filter (function Event.Acquire _ -> true | _ -> false) evs) in
  check_int "failed try_lock emits nothing" 2 acquires

let test_condition_variable () =
  let log = ref [] in
  let _, _ = record ~policy:Scheduler.Round_robin (fun () ->
      let m = Sim.mutex () in
      let cv = Sim.condition () in
      let consumer = Sim.spawn (fun () ->
          Sim.lock m;
          log := "wait" :: !log;
          Sim.cond_wait cv m;
          log := "woken" :: !log;
          Sim.unlock m)
      in
      for _ = 0 to 5 do Sim.yield () done;
      Sim.lock m;
      log := "signal" :: !log;
      Sim.cond_signal cv;
      Sim.unlock m;
      Sim.join consumer)
  in
  Alcotest.(check (list string)) "wait blocks until signal"
    [ "woken"; "signal"; "wait" ] !log

let test_condition_broadcast () =
  let woken = ref 0 in
  let _, _ = record (fun () ->
      let m = Sim.mutex () in
      let cv = Sim.condition () in
      let entered = ref 0 in
      let ts = List.init 3 (fun _ -> Sim.spawn (fun () ->
          Sim.lock m;
          incr entered;
          Sim.cond_wait cv m;
          incr woken;
          Sim.unlock m))
      in
      while !entered < 3 do Sim.yield () done;
      (* all three hold-or-queued; one more lock round makes sure the
         last one reached the wait *)
      Sim.with_lock m (fun () -> ());
      Sim.with_lock m (fun () -> Sim.cond_broadcast cv);
      List.iter Sim.join ts)
  in
  check_int "all woken" 3 !woken

let test_cond_wait_requires_mutex () =
  Alcotest.check_raises "not held"
    (Invalid_argument "Sim.cond_wait: mutex not held by caller") (fun () ->
      ignore (Sim.run (fun () -> Sim.cond_wait (Sim.condition ()) (Sim.mutex ()))))

let test_cond_gives_hb_edge () =
  (* signaller's prior writes are ordered before the woken waiter *)
  let open Dgrace_detectors in
  let d = Dynamic_granularity.create () in
  let _ = Sim.run ~sink:d.Detector.on_event (fun () ->
      let m = Sim.mutex () and cv = Sim.condition () in
      let a = Sim.static_alloc 4 in
      let entered = ref false in
      let t = Sim.spawn (fun () ->
          Sim.lock m;
          entered := true;
          Sim.cond_wait cv m;
          Sim.read a 4;
          Sim.unlock m)
      in
      while not !entered do Sim.yield () done;
      Sim.with_lock m (fun () -> ());
      Sim.write a 4;
      Sim.with_lock m (fun () -> Sim.cond_signal cv);
      Sim.join t)
  in
  d.finish ();
  check_int "cond wait orders the read" 0 (Detector.race_count d)

let test_semaphore () =
  let order = ref [] in
  let _, _ = record ~policy:Scheduler.Round_robin (fun () ->
      let s = Sim.semaphore 0 in
      let t = Sim.spawn (fun () ->
          Sim.sem_wait s;
          order := "consumed" :: !order)
      in
      for _ = 0 to 5 do Sim.yield () done;
      order := "posting" :: !order;
      Sim.sem_post s;
      Sim.join t)
  in
  Alcotest.(check (list string)) "wait blocks until post"
    [ "consumed"; "posting" ] !order

let test_semaphore_counts () =
  let acquired = ref 0 in
  let _, _ = record (fun () ->
      let s = Sim.semaphore 2 in
      Sim.sem_wait s;
      incr acquired;
      Sim.sem_wait s;
      incr acquired;
      Sim.sem_post s;
      Sim.sem_wait s;
      incr acquired)
  in
  check_int "initial permits plus a post" 3 !acquired

let test_semaphore_hb_edge () =
  let open Dgrace_detectors in
  let d = Dynamic_granularity.create () in
  let _ = Sim.run ~sink:d.Detector.on_event (fun () ->
      let s = Sim.semaphore 0 in
      let a = Sim.static_alloc 4 in
      let t = Sim.spawn (fun () ->
          Sim.sem_wait s;
          Sim.write a 4)
      in
      Sim.write a 4;
      Sim.sem_post s;
      Sim.join t)
  in
  d.finish ();
  check_int "post orders the writes" 0 (Detector.race_count d)

let test_atomic_load_store () =
  let open Dgrace_detectors in
  let d = Dynamic_granularity.create () in
  let _ = Sim.run ~sink:d.Detector.on_event (fun () ->
      let a = Sim.static_alloc 4 in
      let t = Sim.spawn (fun () -> Sim.atomic_load a 4) in
      Sim.atomic_store a 4;
      Sim.join t)
  in
  d.finish ();
  check_int "atomics never race" 0 (Detector.race_count d)

let test_atomic_events () =
  let _, evs = record (fun () -> Sim.atomic_rmw 0x1000 4) in
  let shapes = List.filter_map (function
      | Event.Acquire { sync = Event.Atomic; _ } -> Some "acq"
      | Event.Release { sync = Event.Atomic; _ } -> Some "rel"
      | Event.Access { kind = Read; _ } -> Some "r"
      | Event.Access { kind = Write; _ } -> Some "w"
      | _ -> None) evs
  in
  Alcotest.(check (list string)) "atomic is acq/r/w/rel" [ "acq"; "r"; "w"; "rel" ] shapes

let test_self_ids () =
  let ids = ref [] in
  let _, _ = record (fun () ->
      ids := Sim.self () :: !ids;
      let t = Sim.spawn (fun () -> ids := Sim.self () :: !ids) in
      Sim.join t)
  in
  Alcotest.(check (list int)) "tids" [ 1; 0 ] !ids

let test_many_threads () =
  let n = 500 in
  let sum = ref 0 in
  let r, _ = record (fun () ->
      let a = Sim.static_alloc (4 * n) in
      let ts = List.init n (fun i -> Sim.spawn (fun () ->
          Sim.write (a + (4 * i)) 4;
          incr sum))
      in
      List.iter Sim.join ts)
  in
  check_int "all ran" n !sum;
  check_int "thread count" (n + 1) r.threads

let test_thread_limit () =
  Alcotest.check_raises "tid space bounded"
    (Invalid_argument "Sim.spawn: more than 1024 threads") (fun () ->
      ignore (Sim.run (fun () ->
          for _ = 1 to 1100 do
            ignore (Sim.spawn (fun () -> ()))
          done)))

let test_memory_allocator () =
  let m = Memory.create () in
  let a = Memory.alloc m 100 in
  let b = Memory.alloc m 100 in
  check_bool "blocks disjoint" true (b >= a + 100 || a >= b + 100);
  check_int "live" 200 (Memory.live_bytes m);
  Alcotest.(check (option int)) "size_of" (Some 100) (Memory.size_of m a);
  check_int "free returns size" 100 (Memory.free m a);
  check_int "live after free" 100 (Memory.live_bytes m);
  let c = Memory.alloc m 100 in
  check_int "freed block recycled" a c;
  check_int "total allocated accumulates" 300 (Memory.total_allocated m);
  check_int "alloc count" 3 (Memory.alloc_count m);
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Memory.free: unknown address 0x%x" b))
    (fun () -> ignore (Memory.free m b); ignore (Memory.free m b))

let test_memory_alignment () =
  let m = Memory.create () in
  let a = Memory.alloc m ~align:64 10 in
  check_int "aligned" 0 (a land 63);
  let s = Memory.alloc_static m ~align:16 5 in
  check_int "static aligned" 0 (s land 15)

let test_calloc_emits_init_write () =
  let _, evs = record (fun () -> ignore (Sim.calloc ~loc:"init" 32)) in
  let writes = List.filter (function
      | Event.Access { kind = Write; size = 32; loc = "init"; _ } -> true
      | _ -> false) evs
  in
  check_int "zeroing write" 1 (List.length writes)

let test_alloc_free_events_carry_size () =
  let _, evs = record (fun () ->
      let a = Sim.malloc 48 in
      Sim.free a)
  in
  List.iter (function
      | Event.Alloc { size; _ } -> check_int "alloc size" 48 size
      | Event.Free { size; _ } -> check_int "free size" 48 size
      | _ -> ()) evs

(* ------------------------------------------------------------------ *)
(* golden schedules: every digest matches the checked-in table *)

let test_golden () =
  let expected =
    String.split_on_char '\n' Golden_table.text |> List.filter (( <> ) "")
  in
  let actual = List.map Sim_golden.line (Sim_golden.cases ()) in
  check_int "table size" (List.length expected) (List.length actual);
  let mismatches =
    List.filter_map
      (fun (e, a) -> if e = a then None else Some (e, a))
      (List.combine expected actual)
  in
  List.iteri
    (fun i (e, a) ->
      if i < 5 then Printf.printf "expected: %s\nactual:   %s\n" e a)
    mismatches;
  check_int "mismatched runs" 0 (List.length mismatches)

(* ------------------------------------------------------------------ *)
(* sink-exception contract: an exception raised by the sink stops the
   run at that event and escapes [Sim.run] unchanged; thread code
   (with_lock's cleanup included) never sees it *)

exception Sink_stop of int

let contract_program unwound () =
  let m = Sim.mutex () in
  let b = Sim.barrier 2 in
  let c = Sim.condition () in
  let ready = ref false in
  let a = Sim.static_alloc 16 in
  let guard body () =
    match body () with () -> () | exception e -> unwound := true; raise e
  in
  let worker i () =
    Sim.with_lock m (fun () -> Sim.write (a + (4 * i)) 4; Sim.read a 4);
    Sim.barrier_wait b;
    Sim.with_lock m (fun () ->
        if i = 0 then begin
          ready := true;
          Sim.cond_broadcast c
        end
        else while not !ready do Sim.cond_wait c m done;
        Sim.write (a + 8) 4)
  in
  let t1 = Sim.spawn (guard (worker 0)) in
  let t2 = Sim.spawn (guard (worker 1)) in
  Sim.join t1;
  Sim.join t2

let test_sink_exception_contract () =
  List.iter
    (fun policy ->
      let full = (Sim.run ~policy (contract_program (ref false))).events in
      check_bool "stream long enough" true (full > 20);
      for k = 1 to full do
        let delivered = ref 0 in
        let raised = Sink_stop k in
        let sink _ =
          incr delivered;
          if !delivered = k then raise raised
        in
        let unwound = ref false in
        (match Sim.run ~policy ~sink (contract_program unwound) with
         | _ -> Alcotest.failf "k=%d: run completed" k
         | exception e ->
           check_bool (Printf.sprintf "k=%d: same exception" k) true (e == raised));
        check_int (Printf.sprintf "k=%d: delivered" k) k !delivered;
        check_bool (Printf.sprintf "k=%d: thread code unwound" k) false !unwound;
        (* the simulator state was restored: the next run on this
           domain is complete *)
        let again = Sim.run ~policy (contract_program (ref false)) in
        check_int (Printf.sprintf "k=%d: next run" k) full again.events
      done)
    [ Scheduler.Chunked { seed = 1; chunk = 64 }; Scheduler.Round_robin ]

(* The row emitter: [run_batches] delivers exactly [run]'s stream and
   outcome, whatever the batch lengths.  Over the workloads and the
   golden table's random programs (misuse, bad joins, deadlocks), the
   rows it hands over, read back as events, are the sink's events, in
   order and numbered by [off]; rows emitted before a raising escape
   reach the consumer first. *)

let outcome_of run =
  match run () with
  | (r : Sim.result) ->
    Printf.sprintf "ok threads=%d events=%d accesses=%d allocated=%d" r.threads
      r.events r.accesses r.total_allocated
  | exception Sim.Deadlock { blocked; held } ->
    Printf.sprintf "deadlock %s %s"
      (String.concat ";" (List.map string_of_int blocked))
      (String.concat ";" (List.map (fun (l, o) -> Printf.sprintf "%d@%d" l o) held))
  | exception e -> "raised " ^ Printexc.to_string e

let batched_stream ?policy ~rows program =
  let events = ref [] and offs_ok = ref true and next = ref 0 in
  let short = ref false in
  let consume b =
    (* only the last delivery may end before its length *)
    if !short || Batch.length b > rows !next then offs_ok := false;
    short := Batch.length b < rows !next;
    for i = 0 to Batch.length b - 1 do
      if b.Batch.off.(i) <> !next then offs_ok := false;
      incr next;
      events := Batch.event b i :: !events
    done
  in
  let outcome = outcome_of (fun () -> Sim.run_batches ?policy ~rows ~consume program) in
  (outcome, List.rev !events, !offs_ok)

let sink_stream ?policy program =
  let events = ref [] in
  let outcome =
    outcome_of (fun () -> Sim.run ?policy ~sink:(fun e -> events := e :: !events) program)
  in
  (outcome, List.rev !events)

let row_lengths =
  [
    ("4096", fun (_ : int) -> Batch.default_capacity);
    ("1", fun _ -> 1);
    ("37", fun _ -> 37);
    ("to multiples of 100", fun n -> 100 - (n mod 100));
  ]

let check_batched_stream ~ctx ?policy program =
  let want_outcome, want = sink_stream ?policy program in
  List.iter
    (fun (rname, rows) ->
      let outcome, got, offs_ok = batched_stream ?policy ~rows program in
      let ctx = ctx ^ " rows=" ^ rname in
      Alcotest.(check string) (ctx ^ ": outcome") want_outcome outcome;
      check_int (ctx ^ ": events") (List.length want) (List.length got);
      if List.map Event.to_string want <> List.map Event.to_string got then
        Alcotest.failf "%s: rows differ from the sink's events" ctx;
      check_bool (ctx ^ ": offsets number the stream, batches end on time")
        true offs_ok)
    row_lengths

let test_batched_equals_sink () =
  List.iter
    (fun (w : Dgrace_workloads.Workload.t) ->
      let params = Dgrace_workloads.Workload.with_params ~scale:1 w in
      check_batched_stream ~ctx:w.name
        ~policy:(Scheduler.Chunked { seed = 1; chunk = 64 })
        (w.program params))
    Dgrace_workloads.Registry.all;
  for i = 0 to 59 do
    let shape = Sim_golden.gen_shape (Random.State.make [| 0x5eed; i |]) in
    List.iter
      (fun (pname, policy) ->
        check_batched_stream
          ~ctx:(Printf.sprintf "prog%03d/%s" i pname)
          ~policy (Sim_golden.program shape))
      (Sim_golden.program_policies i)
  done

(* A program that emits [k] accesses and then deadlocks: lock m1, let
   the child lock m2, then each waits for the other's lock. *)
let deadlocking k () =
  let m1 = Sim.mutex () and m2 = Sim.mutex () in
  let a = Sim.static_alloc 8 in
  Sim.lock m1;
  let t = Sim.spawn (fun () -> Sim.lock m2; Sim.yield (); Sim.lock m1) in
  for _ = 1 to k do Sim.write a 4 done;
  Sim.yield ();
  Sim.lock m2;
  Sim.join t

exception Budget_stop

let test_pending_rows_before_escape () =
  let policy = Scheduler.Round_robin in
  let escapes =
    [
      ("deadlock", deadlocking 10, (function Sim.Deadlock _ -> true | _ -> false));
      ( "bad join target",
        (fun () -> Sim.write (Sim.static_alloc 4) 4; Sim.join 7),
        function Invalid_argument _ -> true | _ -> false );
      ( "bad allocation size",
        (fun () -> Sim.write (Sim.static_alloc 4) 4; ignore (Sim.malloc (-1))),
        function Invalid_argument _ -> true | _ -> false );
      ( "misuse escaping a thread",
        (fun () -> Sim.write (Sim.static_alloc 4) 4; Sim.unlock (Sim.mutex ())),
        function Invalid_argument _ -> true | _ -> false );
    ]
  in
  List.iter
    (fun (name, program, expected) ->
      let _, want = sink_stream ~policy program in
      check_bool (name ^ ": some events first") true (want <> []);
      (* every pending row reaches the consumer, then the escape *)
      let got = ref [] and calls = ref 0 in
      let consume b =
        incr calls;
        Batch.iter_events (fun e -> got := e :: !got) b
      in
      (match Sim.run_batches ~policy ~consume program with
       | _ -> Alcotest.failf "%s: run completed" name
       | exception e -> check_bool (name ^ ": the escape") true (expected e));
      check_int (name ^ ": one delivery") 1 !calls;
      Alcotest.(check (list string))
        (name ^ ": pending rows delivered")
        (List.map Event.to_string want)
        (List.map Event.to_string (List.rev !got));
      (* a stop the consumer raises inside those rows wins *)
      let consume (_ : Batch.t) = raise Budget_stop in
      match Sim.run_batches ~policy ~consume program with
      | _ -> Alcotest.failf "%s: run completed" name
      | exception Budget_stop -> ()
      | exception e ->
        Alcotest.failf "%s: %s escaped, not the consumer's stop" name
          (Printexc.to_string e))
    escapes

(* [test_sink_exception_contract] for a raising batch consumer: the
   run stops at that batch, the exception escapes unchanged, no row is
   delivered twice, thread code never sees it. *)
let test_batch_exception_contract () =
  let policy = Scheduler.Chunked { seed = 1; chunk = 64 } in
  let full = (Sim.run ~policy (contract_program (ref false))).events in
  List.iter
    (fun per ->
      let batches = (full + per - 1) / per in
      for k = 1 to batches do
        let delivered = ref 0 and calls = ref 0 in
        let raised = Sink_stop k in
        let consume b =
          incr calls;
          delivered := !delivered + Batch.length b;
          if !calls = k then raise raised
        in
        let unwound = ref false in
        (match
           Sim.run_batches ~policy ~rows:(fun _ -> per) ~consume
             (contract_program unwound)
         with
         | _ -> Alcotest.failf "per=%d k=%d: run completed" per k
         | exception e ->
           check_bool (Printf.sprintf "per=%d k=%d: same exception" per k) true
             (e == raised));
        check_int (Printf.sprintf "per=%d k=%d: calls" per k) k !calls;
        check_int (Printf.sprintf "per=%d k=%d: rows" per k)
          (Int.min full (k * per)) !delivered;
        check_bool (Printf.sprintf "per=%d k=%d: thread code unwound" per k)
          false !unwound
      done)
    [ 1; 5 ]

let test_outside_run () =
  match Sim.yield () with
  | () -> Alcotest.fail "an operation outside Sim.run returned"
  | exception Effect.Unhandled _ -> ()

(* One domain simulates at a time; the world is global, claimed by
   the outermost [run] and given back when it ends. *)
let test_world_one_domain () =
  let tiny () = Sim.write (Sim.static_alloc 4) 4 in
  let from_other_domain () =
    Domain.join
      (Domain.spawn (fun () ->
           match Sim.run tiny with
           | r -> Ok r.Sim.events
           | exception Invalid_argument msg -> Error msg))
  in
  let refused = ref (Ok 0) in
  let r =
    Sim.run (fun () ->
        Sim.write (Sim.static_alloc 4) 4;
        refused := from_other_domain ();
        Sim.write (Sim.static_alloc 4) 4)
  in
  (match !refused with
   | Error msg ->
     Alcotest.(check string) "refusal" "Sim.run: another domain is running a simulation" msg
   | Ok _ -> Alcotest.fail "a second domain ran while a run was live");
  check_int "the live run was not disturbed" 3 r.events;
  (match from_other_domain () with
   | Ok n -> check_int "accepted after the run ended" 2 n
   | Error msg -> Alcotest.failf "refused after the run ended: %s" msg);
  (* a run that raises gives the world back too *)
  (match Sim.run (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "the failing run returned"
   | exception Failure _ -> ());
  match from_other_domain () with
  | Ok n -> check_int "accepted after a failed run" 2 n
  | Error msg -> Alcotest.failf "refused after a failed run: %s" msg

let test_world_nested () =
  let inner = ref [] in
  let r, outer =
    record (fun () ->
        let m = Sim.mutex () in
        Sim.write ~loc:"outer" 0x100 4;
        let t = Sim.spawn (fun () -> Sim.read ~loc:"child" 0x200 4) in
        let ir =
          Sim.run
            ~sink:(fun e -> inner := e :: !inner)
            (fun () ->
              let im = Sim.mutex () in
              Sim.with_lock im (fun () -> Sim.write ~loc:"inner" 0x300 4))
        in
        check_int "inner events" 4 ir.events;
        (* the outer world is back: same thread, same sync numbering *)
        check_int "outer thread" 0 (Sim.self ());
        check_int "outer sync ids continue" 2 (Sim.mutex_id (Sim.mutex ()));
        Sim.with_lock m (fun () -> Sim.write ~loc:"outer" 0x100 4);
        Sim.join t)
  in
  let locs evs =
    List.filter_map (function Event.Access { loc; _ } -> Some loc | _ -> None) evs
  in
  Alcotest.(check (list string)) "inner accesses" [ "inner" ] (locs (List.rev !inner));
  check_bool "inner lock is id 1" true
    (List.exists
       (function Event.Acquire { lock = 1; tid = 0; _ } -> true | _ -> false)
       !inner);
  Alcotest.(check (list string)) "outer accesses, the child's included"
    [ "child"; "outer"; "outer" ]
    (List.sort compare (locs outer));
  check_int "outer accesses" 3 r.accesses;
  check_bool "outer lock is id 1" true
    (List.exists (function Event.Acquire { lock = 1; _ } -> true | _ -> false) outer)

let test_world_outside () =
  ignore (Sim.run (fun () -> Sim.yield ()));
  (match Sim.read 0x100 4 with
   | () -> Alcotest.fail "an access outside Sim.run returned"
   | exception Effect.Unhandled _ -> ());
  (match Sim.run (fun () -> Sim.free 0x100) with
   | _ -> Alcotest.fail "a bad free returned"
   | exception Invalid_argument _ -> ());
  (match Sim.self () with
   | _ -> Alcotest.fail "an operation after a failed run returned"
   | exception Effect.Unhandled _ -> ());
  Alcotest.check_raises "constructor after a failed run"
    (Invalid_argument "Sim.event: sync objects must be created inside Sim.run")
    (fun () -> ignore (Sim.event ()))

let suites : unit Alcotest.test list =
    [
      ( "sim.events",
        [
          Alcotest.test_case "single-thread order" `Quick test_event_order_single_thread;
          Alcotest.test_case "result counters" `Quick test_result_counters;
          Alcotest.test_case "atomic op shape" `Quick test_atomic_events;
          Alcotest.test_case "alloc/free sizes" `Quick test_alloc_free_events_carry_size;
          Alcotest.test_case "calloc init write" `Quick test_calloc_emits_init_write;
        ] );
      ( "sim.scheduling",
        [
          Alcotest.test_case "determinism per seed" `Quick test_determinism;
          Alcotest.test_case "sync ids per run" `Quick test_sync_ids_per_run;
          Alcotest.test_case "seeds differ" `Quick test_policies_differ;
          Alcotest.test_case "self ids" `Quick test_self_ids;
        ] );
      ( "sim.sync",
        [
          Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "lock misuse errors" `Quick test_lock_error_cases;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "join waits" `Quick test_join_semantics;
          Alcotest.test_case "join after exit" `Quick test_join_already_exited;
          Alcotest.test_case "barrier ordering" `Quick test_barrier_all_arrive_before_depart;
          Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "event flag" `Quick test_event_flag;
          Alcotest.test_case "try_lock" `Quick test_try_lock;
          Alcotest.test_case "condition wait/signal" `Quick test_condition_variable;
          Alcotest.test_case "condition broadcast" `Quick test_condition_broadcast;
          Alcotest.test_case "cond_wait requires mutex" `Quick test_cond_wait_requires_mutex;
          Alcotest.test_case "cond gives HB edge" `Quick test_cond_gives_hb_edge;
          Alcotest.test_case "semaphore blocks" `Quick test_semaphore;
          Alcotest.test_case "semaphore counts" `Quick test_semaphore_counts;
          Alcotest.test_case "semaphore HB edge" `Quick test_semaphore_hb_edge;
          Alcotest.test_case "atomic load/store" `Quick test_atomic_load_store;
        ] );
      ( "sim.memory",
        [
          Alcotest.test_case "allocator" `Quick test_memory_allocator;
          Alcotest.test_case "500 threads" `Quick test_many_threads;
          Alcotest.test_case "thread-id limit" `Quick test_thread_limit;
          Alcotest.test_case "alignment" `Quick test_memory_alignment;
        ] );
      ( "sim.golden",
        [ Alcotest.test_case "schedule digests" `Quick test_golden ] );
      ( "sim.sink",
        [
          Alcotest.test_case "sink exception contract" `Quick
            test_sink_exception_contract;
          Alcotest.test_case "operation outside run" `Quick test_outside_run;
          Alcotest.test_case "batched rows = sink events" `Quick
            test_batched_equals_sink;
          Alcotest.test_case "pending rows before an escape" `Quick
            test_pending_rows_before_escape;
          Alcotest.test_case "batch consumer exception contract" `Quick
            test_batch_exception_contract;
        ] );
      ( "sim.world",
        [
          Alcotest.test_case "one simulating domain" `Quick test_world_one_domain;
          Alcotest.test_case "nested run restores the outer world" `Quick
            test_world_nested;
          Alcotest.test_case "operation outside any run" `Quick test_world_outside;
        ] );
    ]
