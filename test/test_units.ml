(* Unit coverage for the smaller building blocks: the thread/lock clock
   environment, the adaptive read representation, lock tracking, the
   scheduler picker, the memory allocator, and race-info helpers. *)

open Dgrace_vclock
open Dgrace_detectors

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Vc_env *)

let test_vc_env_epochs () =
  let env = Vc_env.create () in
  check_int "fresh thread clock" 1 (Epoch.clock (Vc_env.epoch_of env 0));
  Vc_env.release env ~tid:0 ~lock:1;
  check_int "release starts a new epoch" 2 (Epoch.clock (Vc_env.epoch_of env 0));
  (* the other thread learns t0's released clock on acquire *)
  Vc_env.acquire env ~tid:1 ~lock:1;
  check_int "acquired knowledge" 1 (Vector_clock.get (Vc_env.clock_of env 1) 0);
  check_int "own clock unchanged by acquire" 1
    (Epoch.clock (Vc_env.epoch_of env 1))

let test_vc_env_fork_join () =
  let env = Vc_env.create () in
  Vc_env.release env ~tid:0 ~lock:9;  (* t0 now at clock 2 *)
  Vc_env.fork env ~parent:0 ~child:1;
  check_int "child inherits parent" 2 (Vector_clock.get (Vc_env.clock_of env 1) 0);
  check_int "fork bumps parent" 3 (Epoch.clock (Vc_env.epoch_of env 0));
  Vc_env.release env ~tid:1 ~lock:8;
  Vc_env.join env ~parent:0 ~child:1;
  check_bool "parent dominates child after join" true
    (Vector_clock.leq (Vc_env.clock_of env 1) (Vc_env.clock_of env 0))

let test_vc_env_handle_boundaries () =
  let env = Vc_env.create () in
  let boundaries = ref [] in
  let on_boundary tid = boundaries := tid :: !boundaries in
  let handled e = Vc_env.handle env e ~on_boundary in
  let open Dgrace_events.Event in
  check_bool "acquire handled" true (handled (Acquire { tid = 0; lock = 1; sync = Lock }));
  check_bool "release handled" true (handled (Release { tid = 0; lock = 1; sync = Lock }));
  check_bool "fork handled" true (handled (Fork { parent = 0; child = 1 }));
  check_bool "exit handled" true (handled (Thread_exit { tid = 1 }));
  check_bool "access not handled" false
    (handled (Access { tid = 0; kind = Read; addr = 0; size = 1; loc = "" }));
  (* boundaries: release t0, fork parent t0, exit t1 — not acquire *)
  Alcotest.(check (list int)) "boundary threads" [ 1; 0; 0 ] !boundaries

(* ------------------------------------------------------------------ *)
(* Read_state *)

let vc_of l =
  let vc = Vector_clock.create () in
  List.iter (fun (t, c) -> Vector_clock.set vc t c) l;
  vc

let test_read_state_exclusive_stays_epoch () =
  let intern = Vc_intern.create () in
  let tvc1 = vc_of [ (0, 3) ] in
  let r = Read_state.update ~intern Read_state.empty ~tid:0 ~tvc:tvc1 in
  check_bool "epoch repr" true
    ((not (Read_state.is_vc r)) && not (Read_state.is_empty r));
  (* a later ordered read by another thread stays an epoch *)
  let tvc2 = vc_of [ (0, 4); (1, 2) ] in
  let r = Read_state.update ~intern r ~tid:1 ~tvc:tvc2 in
  if Read_state.is_vc r || Read_state.is_empty r then
    Alcotest.fail "expected epoch";
  let e = Read_state.epoch r in
  check_int "latest reader" 1 (Epoch.tid e);
  check_int "latest clock" 2 (Epoch.clock e);
  check_int "no extra bytes" 0 (Read_state.bytes r)

let test_read_state_inflates_on_concurrent_reads () =
  let intern = Vc_intern.create () in
  let r =
    Read_state.update ~intern Read_state.empty ~tid:0 ~tvc:(vc_of [ (0, 3) ])
  in
  (* t1 did not see t0's read: unordered -> vector clock *)
  let r = Read_state.update ~intern r ~tid:1 ~tvc:(vc_of [ (1, 5) ]) in
  if not (Read_state.is_vc r) then Alcotest.fail "expected vector clock";
  let s = Read_state.snap r in
  check_int "keeps t0" 3 (Vc_intern.get s 0);
  check_int "keeps t1" 5 (Vc_intern.get s 1);
  check_bool "vc costs bytes" true (Read_state.bytes r > 0);
  (* leq against a clock that saw both *)
  check_bool "leq both" true (Read_state.leq r (vc_of [ (0, 3); (1, 5) ]));
  check_bool "not leq partial" false (Read_state.leq r (vc_of [ (0, 9) ]))

let test_read_state_same_epoch () =
  let e = Epoch.make ~tid:2 ~clock:7 in
  check_bool "epoch matches" true (Read_state.same_epoch (Read_state.of_epoch e) e);
  check_bool "no_reads never" false (Read_state.same_epoch Read_state.empty e);
  check_bool "equal variants" true
    (Read_state.equal (Read_state.of_epoch e) (Read_state.of_epoch e));
  check_bool "different variants" false
    (Read_state.equal (Read_state.of_epoch e) Read_state.empty)

(* Recording a read that stays an epoch allocates nothing: the first
   read ([empty -> epoch]) and an ordered later read ([epoch -> epoch])
   return an immediate. *)
let test_read_state_epoch_updates_allocate_nothing () =
  let intern = Vc_intern.create () in
  let tvc0 = vc_of [ (0, 3) ] and tvc1 = vc_of [ (0, 4); (1, 2) ] in
  let first () = Read_state.update ~intern Read_state.empty ~tid:0 ~tvc:tvc0 in
  let r0 = first () in
  let ordered () = Read_state.update ~intern r0 ~tid:1 ~tvc:tvc1 in
  ignore (ordered () : Read_state.t);
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()) : Read_state.t)
    done;
    Gc.minor_words () -. w0
  in
  let w_first = words first and w_ordered = words ordered in
  check_bool "ordered read stays an epoch" false (Read_state.is_vc (ordered ()));
  Alcotest.(check (float 0.)) "empty -> epoch: minor words" 0. w_first;
  Alcotest.(check (float 0.)) "epoch -> epoch: minor words" 0. w_ordered

(* ------------------------------------------------------------------ *)
(* Lock_tracker *)

let test_lock_tracker () =
  let t = Lock_tracker.create () in
  let open Dgrace_events.Event in
  Lock_tracker.handle t (Acquire { tid = 3; lock = 7; sync = Lock });
  Lock_tracker.handle t (Acquire { tid = 3; lock = 8; sync = Lock });
  check_int "two held" 2 (Lock_tracker.Iset.cardinal (Lock_tracker.held t 3));
  Lock_tracker.handle t (Release { tid = 3; lock = 7; sync = Lock });
  check_bool "7 released" false (Lock_tracker.Iset.mem 7 (Lock_tracker.held t 3));
  (* non-lock sync kinds never enter locksets *)
  Lock_tracker.handle t (Acquire { tid = 3; lock = 9; sync = Barrier });
  Lock_tracker.handle t (Acquire { tid = 3; lock = 10; sync = Flag });
  Lock_tracker.handle t (Acquire { tid = 3; lock = 11; sync = Atomic });
  check_int "still one held" 1 (Lock_tracker.Iset.cardinal (Lock_tracker.held t 3));
  check_bool "unknown thread empty" true
    (Lock_tracker.Iset.is_empty (Lock_tracker.held t 99))

(* ------------------------------------------------------------------ *)
(* Race_info *)

let test_conflicting_tid () =
  let v = vc_of [ (0, 2); (3, 9) ] in
  let against = vc_of [ (0, 5) ] in
  check_int "finds the unordered component" 3
    (Race_info.conflicting_tid v ~against);
  check_int "none when dominated" (-1)
    (Race_info.conflicting_tid v ~against:(vc_of [ (0, 5); (3, 9) ]))

(* ------------------------------------------------------------------ *)
(* Scheduler picker *)

let test_scheduler_round_robin () =
  let s = Dgrace_sim.Scheduler.create Dgrace_sim.Scheduler.Round_robin in
  for _ = 1 to 5 do
    check_int "always head" 0
      (Dgrace_sim.Scheduler.pick s ~current:1 ~ready_tids:(fun i -> i) ~n:4)
  done

let test_scheduler_chunked_stays () =
  let s =
    Dgrace_sim.Scheduler.create (Dgrace_sim.Scheduler.Chunked { seed = 1; chunk = 100 })
  in
  (* after the first (random) pick, the same thread is preferred while
     the chunk budget lasts *)
  let first = Dgrace_sim.Scheduler.pick s ~current:(-1) ~ready_tids:(fun i -> i + 10) ~n:3 in
  let chosen = first + 10 in
  for _ = 1 to 10 do
    let i = Dgrace_sim.Scheduler.pick s ~current:chosen ~ready_tids:(fun i -> i + 10) ~n:3 in
    check_int "stays on current" (chosen - 10) i
  done

let test_scheduler_random_deterministic () =
  let picks seed =
    let s = Dgrace_sim.Scheduler.create (Dgrace_sim.Scheduler.Random_each seed) in
    List.init 20 (fun _ ->
        Dgrace_sim.Scheduler.pick s ~current:0 ~ready_tids:(fun i -> i) ~n:5)
  in
  Alcotest.(check (list int)) "same seed, same picks" (picks 7) (picks 7);
  check_bool "different seeds differ" true (picks 7 <> picks 8)

(* ------------------------------------------------------------------ *)
(* Memory allocator: random alloc/free sequences keep blocks disjoint *)

let allocator_model =
  QCheck.Test.make ~name:"allocator keeps live blocks disjoint" ~count:200
    QCheck.(small_list (pair bool (int_range 1 200)))
    (fun ops ->
      let m = Dgrace_sim.Memory.create () in
      let live = ref [] in
      List.iter
        (fun (do_free, n) ->
          if do_free && !live <> [] then begin
            let addr, _ = List.hd !live in
            ignore (Dgrace_sim.Memory.free m addr : int);
            live := List.tl !live
          end
          else begin
            let addr = Dgrace_sim.Memory.alloc m n in
            List.iter
              (fun (a, s) ->
                if addr < a + s && a < addr + n then
                  QCheck.Test.fail_reportf "overlap: 0x%x+%d with 0x%x+%d" addr n a s)
              !live;
            live := (addr, n) :: !live
          end)
        ops;
      let expected = List.fold_left (fun acc (_, s) -> acc + s) 0 !live in
      Dgrace_sim.Memory.live_bytes m = expected)

(* ------------------------------------------------------------------ *)
(* Accounting invariants under random deltas *)

let accounting_invariants =
  QCheck.Test.make ~name:"accounting peaks dominate currents" ~count:200
    QCheck.(small_list (pair (int_bound 2) (int_range (-50) 100)))
    (fun ops ->
      let open Dgrace_shadow in
      let a = Accounting.create () in
      List.iter
        (fun (k, d) ->
          match k with
          | 0 -> Accounting.add_hash a d
          | 1 -> Accounting.add_vc a d
          | _ -> Accounting.add_bitmap a d)
        ops;
      Accounting.peak_bytes a >= Accounting.current_bytes a
      && Accounting.peak_hash_bytes a >= Accounting.hash_bytes a
      && Accounting.peak_vc_bytes a >= Accounting.vc_bytes a
      && Accounting.peak_bitmap_bytes a >= Accounting.bitmap_bytes a
      && Accounting.peak_bytes a
         <= Accounting.peak_hash_bytes a + Accounting.peak_vc_bytes a
            + Accounting.peak_bitmap_bytes a)

let suites : unit Alcotest.test list =
  [
    ( "units.vc-env",
      [
        Alcotest.test_case "epochs and lock flow" `Quick test_vc_env_epochs;
        Alcotest.test_case "fork/join" `Quick test_vc_env_fork_join;
        Alcotest.test_case "handle + boundaries" `Quick test_vc_env_handle_boundaries;
      ] );
    ( "units.read-state",
      [
        Alcotest.test_case "ordered reads stay epochs" `Quick test_read_state_exclusive_stays_epoch;
        Alcotest.test_case "concurrent reads inflate" `Quick test_read_state_inflates_on_concurrent_reads;
        Alcotest.test_case "same-epoch and equality" `Quick test_read_state_same_epoch;
        Alcotest.test_case "epoch updates allocate nothing" `Quick
          test_read_state_epoch_updates_allocate_nothing;
      ] );
    ( "units.lock-tracker",
      [ Alcotest.test_case "held sets" `Quick test_lock_tracker ] );
    ( "units.race-info",
      [ Alcotest.test_case "conflicting tid" `Quick test_conflicting_tid ] );
    ( "units.scheduler",
      [
        Alcotest.test_case "round robin" `Quick test_scheduler_round_robin;
        Alcotest.test_case "chunked stays on thread" `Quick test_scheduler_chunked_stays;
        Alcotest.test_case "random deterministic" `Quick test_scheduler_random_deterministic;
      ] );
    ( "units.memory",
      [ QCheck_alcotest.to_alcotest allocator_model ] );
    ( "units.accounting",
      [ QCheck_alcotest.to_alcotest accounting_invariants ] );
  ]
