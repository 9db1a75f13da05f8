(* Resilience layer: resource budgets, graceful degradation, structured
   failure, and the fault-injection harness. *)

open Dgrace_core
open Dgrace_sim
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Json = Dgrace_obs.Json

let find w = Option.get (Dgrace_workloads.Registry.find w)

let program w =
  let wk = find w in
  wk.Dgrace_workloads.Workload.program wk.defaults

let policy = Scheduler.Chunked { seed = 1; chunk = 64 }

let run ?(budget = Budget.unlimited) spec main =
  Tutil.analyze (Tutil.config ~budget spec) (Tutil.program ~policy main)

let race_addrs (s : Engine.summary) =
  List.map (fun (r : Dgrace_events.Report.t) -> r.addr) s.races
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* budgets *)

let test_budget_validation () =
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool) "make () unlimited" true
    (Budget.is_unlimited (Budget.make ()));
  Alcotest.(check bool) "limited" false
    (Budget.is_unlimited (Budget.make ~max_events:1 ()));
  List.iter
    (fun f ->
      match f () with
      | () -> Alcotest.fail "non-positive limit accepted"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> ignore (Budget.make ~max_events:0 ()));
      (fun () -> ignore (Budget.make ~max_shadow_bytes:(-1) ()));
      (fun () -> ignore (Budget.make ~deadline_s:0. ()));
    ]

let test_event_budget_stops () =
  let s =
    run ~budget:(Budget.make ~max_events:1000 ()) Spec.dynamic (program "raytrace")
  in
  (match s.partial with
   | Some (Budget.Max_events { limit }) ->
     Alcotest.(check int) "limit recorded" 1000 limit
   | _ -> Alcotest.fail "expected Max_events stop");
  Alcotest.(check bool) "sim absent on early stop" true (s.sim = None);
  Alcotest.(check bool) "stream actually cut short" true
    (s.stats.Dgrace_detectors.Run_stats.accesses <= 1000);
  Alcotest.(check int) "exit code partial" Error.exit_partial
    (Engine.exit_code_of_summary s)

let test_deadline_stops () =
  let s =
    run ~budget:(Budget.make ~deadline_s:1e-6 ()) Spec.dynamic (program "raytrace")
  in
  match s.partial with
  | Some (Budget.Deadline { limit_s; elapsed_s }) ->
    Alcotest.(check bool) "elapsed past limit" true (elapsed_s > limit_s)
  | _ -> Alcotest.fail "expected Deadline stop"

(* The headline acceptance property: a budgeted dynamic run that had to
   shed shadow state still reports at least the races the unbudgeted
   sampling detector (literace) finds on the same schedule. *)
let test_degraded_run_superset_of_literace () =
  let s =
    run ~budget:(Budget.make ~max_shadow_bytes:320_000 ()) Spec.dynamic (program "raytrace")
  in
  Alcotest.(check bool) "degraded" true s.degraded;
  Alcotest.(check bool) "but completed" true (s.partial = None);
  let lite = run Spec.Literace (program "raytrace") in
  let got = race_addrs s and want = race_addrs lite in
  Alcotest.(check bool)
    (Printf.sprintf "degraded dynamic (%d races) >= literace (%d races)"
       (List.length got) (List.length want))
    true
    (List.for_all (fun a -> List.mem a got) want);
  (* degradation left its fingerprints in the metrics *)
  let passes =
    Option.value ~default:0
      (Dgrace_obs.Metrics.find_counter s.metrics "degrade.passes")
  in
  Alcotest.(check bool) "degrade passes counted" true (passes > 0);
  (* and in the versioned export *)
  let doc = Engine.summary_to_json s in
  Alcotest.(check bool) "degraded flag exported" true
    (Json.member "degraded" doc = Some (Json.Bool true));
  Alcotest.(check bool) "partial flag exported" true
    (Json.member "partial" doc = Some (Json.Bool false))

let test_degradation_exhausted_stops () =
  (* a budget below the irreducible floor (hash slots can't be shed)
     must end the run with a Shadow_bytes stop, not spin forever *)
  let s =
    run ~budget:(Budget.make ~max_shadow_bytes:30_000 ()) Spec.dynamic (program "raytrace")
  in
  (match s.partial with
   | Some (Budget.Shadow_bytes { limit; bytes }) ->
     Alcotest.(check int) "limit recorded" 30_000 limit;
     Alcotest.(check bool) "still over after shedding" true (bytes > limit)
   | _ -> Alcotest.fail "expected Shadow_bytes stop");
  Alcotest.(check bool) "degraded on the way down" true s.degraded;
  let doc = Engine.summary_to_json s in
  Alcotest.(check bool) "stop_reason exported" true
    (Json.member "stop_reason" doc <> None)

let test_null_detector_cannot_degrade () =
  (* a detector with no degrade hook goes straight to the stop *)
  let s =
    run ~budget:(Budget.make ~max_shadow_bytes:1 ()) Spec.byte (program "dedup")
  in
  match s.partial with
  | Some (Budget.Shadow_bytes _) -> ()
  | _ -> Alcotest.fail "expected Shadow_bytes stop"

(* ------------------------------------------------------------------ *)
(* structured failure *)

let test_run_checked_deadlock () =
  match
    Engine.analyze (Engine.Config.make Spec.dynamic)
      (Tutil.program ~policy (fun () ->
           let flag = Sim.event () in
           Sim.event_wait flag))
  with
  | Error (Error.Deadlock { blocked; held }) ->
    Alcotest.(check (list int)) "main thread blocked" [ 0 ] blocked;
    Alcotest.(check (list (pair int int))) "no locks held" [] held
  | Ok _ -> Alcotest.fail "expected deadlock"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_replay_checked_corrupt () =
  let path = Filename.temp_file "dgrace-resilience" ".trace" in
  let oc = open_out_bin path in
  output_string oc "DGRT\x01\xee\xee\xee";
  close_out oc;
  let ic = open_in_bin path in
  let result =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove path)
      (fun () ->
        Engine.analyze (Engine.Config.make Spec.dynamic)
          (Engine.Source.Events (Dgrace_trace.Trace_reader.read ~path ic)))
  in
  match result with
  | Error (Error.Corrupt_trace { path = Some p; _ }) ->
    Alcotest.(check string) "path carried" path p
  | Ok _ -> Alcotest.fail "expected corrupt-trace error"
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)

let test_exit_codes () =
  let check_code what want e = Alcotest.(check int) what want (Error.exit_code e) in
  check_code "corrupt input -> 4" Error.exit_input_error
    (Error.Corrupt_trace { path = None; offset = 0; events_read = 0; reason = "x" });
  check_code "invalid input -> 4" Error.exit_input_error
    (Error.Invalid_input { what = "x"; reason = "y" });
  check_code "deadlock -> 3" Error.exit_partial
    (Error.Deadlock { blocked = [ 0 ]; held = [] });
  check_code "budget -> 3" Error.exit_partial
    (Error.Budget_exhausted { budget = "events"; limit = 1; actual = 2 });
  Alcotest.(check int) "ok" 0 Error.exit_ok;
  Alcotest.(check int) "races" 2 Error.exit_races

(* ------------------------------------------------------------------ *)
(* fault injection *)

let test_fault_names_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Fault_harness.name f ^ " round-trips")
        true
        (Fault_harness.of_name (Fault_harness.name f) = Some f))
    Fault_harness.all;
  Alcotest.(check bool) "unknown rejected" true
    (Fault_harness.of_name "frobnicate" = None)

let test_lost_unlock_names_lock () =
  match Fault_harness.run ~seed:1 ~program:(program "dedup") Fault_harness.Lost_unlock with
  | Fault_harness.Declared (Error.Deadlock { held; _ }) ->
    Alcotest.(check bool) "orphaned lock reported" true (held <> []);
    Alcotest.(check bool) "held by the exited thread" true
      (List.exists (fun (_, owner) -> owner = 1) held)
  | o -> Alcotest.failf "expected declared deadlock, got: %s" (Fault_harness.describe o)

let test_fault_matrix () =
  (* every seed x mode must recover or declare — never escape *)
  List.iter
    (fun seed ->
      List.iter
        (fun fault ->
          let outcome =
            Fault_harness.run ~seed ~program:(program "dedup") fault
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed=%d %s acceptable" seed
               (Fault_harness.name fault))
            true
            (Fault_harness.acceptable outcome))
        Fault_harness.all)
    [ 1; 2; 3 ]

let test_fault_determinism () =
  (* the same seed must reproduce the same outcome byte-for-byte *)
  List.iter
    (fun fault ->
      let once = Fault_harness.run ~seed:7 ~program:(program "dedup") fault in
      let again = Fault_harness.run ~seed:7 ~program:(program "dedup") fault in
      Alcotest.(check string)
        (Fault_harness.name fault ^ " deterministic")
        (Fault_harness.describe once)
        (Fault_harness.describe again))
    [ Fault_harness.Trace_fault Dgrace_resilience.Fault.Bit_flip;
      Fault_harness.Trace_fault Dgrace_resilience.Fault.Truncate ]

let suites : unit Alcotest.test list =
  [
    ( "resilience.budget",
      [
        Alcotest.test_case "validation" `Quick test_budget_validation;
        Alcotest.test_case "event budget stops" `Quick test_event_budget_stops;
        Alcotest.test_case "deadline stops" `Quick test_deadline_stops;
        Alcotest.test_case "degraded run superset of literace" `Quick
          test_degraded_run_superset_of_literace;
        Alcotest.test_case "degradation exhausted stops" `Quick
          test_degradation_exhausted_stops;
        Alcotest.test_case "non-degradable detector stops" `Quick
          test_null_detector_cannot_degrade;
      ] );
    ( "resilience.errors",
      [
        Alcotest.test_case "run_checked deadlock" `Quick
          test_run_checked_deadlock;
        Alcotest.test_case "replay_checked corrupt" `Quick
          test_replay_checked_corrupt;
        Alcotest.test_case "exit-code table" `Quick test_exit_codes;
      ] );
    ( "resilience.faults",
      [
        Alcotest.test_case "fault names round-trip" `Quick
          test_fault_names_roundtrip;
        Alcotest.test_case "lost unlock names the lock" `Quick
          test_lost_unlock_names_lock;
        Alcotest.test_case "seeded fault matrix" `Slow test_fault_matrix;
        Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
      ] );
  ]
