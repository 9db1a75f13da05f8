(* Exhaustive check of the Figure 2 vector-clock state machine. *)

open Dgrace_detectors
open Share_state

let all_states = [ Init_private; Init_shared; Shared; Private; Race ]

let stim_samples =
  [
    ("first-access/alone", First_access { matching_init_neighbor = false });
    ("first-access/matched", First_access { matching_init_neighbor = true });
    ("init-neighbor-matched", Init_neighbor_matched);
    ("2nd-epoch/alone", Second_epoch_access { matching_settled_neighbor = false });
    ("2nd-epoch/matched", Second_epoch_access { matching_settled_neighbor = true });
    ("adopted", Adopted_by_neighbor);
    ("race", Race_on_l);
    ("dissolved", Sharing_dissolved);
  ]

let st = Alcotest.testable (Fmt.of_to_string to_string) equal

let check_step from stimulus expected () =
  Alcotest.(check (option st)) "transition" expected (step from stimulus)

let test_initial () =
  Alcotest.check st "matched" Init_shared (initial ~matching_init_neighbor:true);
  Alcotest.check st "alone" Init_private (initial ~matching_init_neighbor:false)

let test_predicates () =
  Alcotest.(check (list bool)) "is_init"
    [ true; true; false; false; false ]
    (List.map is_init all_states);
  Alcotest.(check (list bool)) "is_settled"
    [ false; false; true; true; false ]
    (List.map is_settled all_states)

(* Race is absorbing: no stimulus on an existing location leaves it
   (First_access only applies to locations with no state yet). *)
let test_race_absorbing () =
  List.iter
    (fun (n, x) ->
      match x with
      | First_access _ -> ()
      | _ -> (
        match step Race x with
        | Some Race -> ()
        | Some s -> Alcotest.failf "Race --%s--> %s" n (to_string s)
        | None -> Alcotest.failf "Race --%s--> (undefined)" n))
    stim_samples

(* A race on L always moves to Race, from every state. *)
let test_race_on_l_total () =
  List.iter
    (fun s ->
      Alcotest.(check (option st)) (to_string s) (Some Race) (step s Race_on_l))
    all_states

(* The firm decision is made exactly once: settled states have no
   second-epoch transition. *)
let test_settled_final () =
  List.iter
    (fun s ->
      Alcotest.(check (option st)) "no 2nd epoch from settled" None
        (step s (Second_epoch_access { matching_settled_neighbor = true }));
      Alcotest.(check (option st)) "no init-match from settled" None
        (step s Init_neighbor_matched))
    [ Shared; Private ]

(* ------------------------------------------------------------------ *)
(* Telemetry: run the dynamic detector on a real workload and check the
   recorded transition matrix against the sharing-decision counters. *)

let dynamic_run () =
  let w = Option.get (Dgrace_workloads.Registry.find "pbzip2") in
  let p = Dgrace_workloads.Workload.with_params ~scale:2 w in
  Tutil.(
    analyze
      (config Dgrace_core.Spec.dynamic)
      (program
         ~policy:(Dgrace_sim.Scheduler.Chunked { seed = 1; chunk = 64 })
         (w.program p)))

let test_transition_telemetry () =
  let module M = Dgrace_obs.State_matrix in
  let module Mx = Dgrace_obs.Metrics in
  let s = dynamic_run () in
  let m = Option.get s.transitions in
  let count name =
    Option.value ~default:0 (Mx.find_counter s.metrics name)
  in
  Alcotest.(check bool) "ran" true (M.total m > 0);
  (* every recorded edge leaves a known state for a known state *)
  M.iter
    (fun ~from_ ~to_ ~count:_ ->
      ignore (M.state_name m from_);
      ignore (M.state_name m to_))
    m;
  (* a sharing decision is every transition that is not a race edge:
     decisions = total - (edges into the race state) *)
  let race_ix = 1 + Share_state.index Share_state.Race in
  Alcotest.(check int) "decisions = non-race transitions"
    (M.total m - M.col_total m race_ix)
    (count "sharing.decisions");
  Alcotest.(check int) "decisions split shared/private"
    (count "sharing.decisions")
    (count "sharing.decisions.shared" + count "sharing.decisions.private");
  (* the paper's bound: at most two decisions (temporary + firm) per
     location lifetime; lifetimes start at first access, a split, or by
     an address range being adopted into an existing region *)
  let lifetimes =
    count "cells.first_access" + count "cells.split" + count "cells.adopted"
  in
  Alcotest.(check bool)
    (Printf.sprintf "<= 2 decisions per lifetime (%d vs %d lifetimes)"
       (count "sharing.decisions") lifetimes)
    true
    (count "sharing.decisions" <= 2 * lifetimes);
  (* phase accounting: the same-epoch fast path and the analysed slow
     path partition the access stream *)
  Alcotest.(check int) "fast + analysed = accesses" s.stats.accesses
    (s.stats.same_epoch + count "accesses.analysed")

let suites : unit Alcotest.test list =
  [
    ( "state-machine.telemetry",
      [
        Alcotest.test_case "matrix vs decision counters" `Quick
          test_transition_telemetry;
      ] );
    ( "state-machine.figure2",
      [
        Alcotest.test_case "initial" `Quick test_initial;
        Alcotest.test_case "predicates" `Quick test_predicates;
        (* each arrow of Figure 2 *)
        Alcotest.test_case "init-private + neighbor -> init-shared" `Quick
          (check_step Init_private Init_neighbor_matched (Some Init_shared));
        Alcotest.test_case "init-shared + neighbor -> init-shared" `Quick
          (check_step Init_shared Init_neighbor_matched (Some Init_shared));
        Alcotest.test_case "init-private + 2nd epoch alone -> private" `Quick
          (check_step Init_private
             (Second_epoch_access { matching_settled_neighbor = false })
             (Some Private));
        Alcotest.test_case "init-private + 2nd epoch matched -> shared" `Quick
          (check_step Init_private
             (Second_epoch_access { matching_settled_neighbor = true })
             (Some Shared));
        Alcotest.test_case "init-shared + 2nd epoch alone -> private" `Quick
          (check_step Init_shared
             (Second_epoch_access { matching_settled_neighbor = false })
             (Some Private));
        Alcotest.test_case "init-shared + 2nd epoch matched -> shared" `Quick
          (check_step Init_shared
             (Second_epoch_access { matching_settled_neighbor = true })
             (Some Shared));
        Alcotest.test_case "private + adopted -> shared" `Quick
          (check_step Private Adopted_by_neighbor (Some Shared));
        Alcotest.test_case "shared + adopted -> shared" `Quick
          (check_step Shared Adopted_by_neighbor (Some Shared));
        Alcotest.test_case "shared + dissolved -> race" `Quick
          (check_step Shared Sharing_dissolved (Some Race));
        Alcotest.test_case "init-shared + dissolved -> race" `Quick
          (check_step Init_shared Sharing_dissolved (Some Race));
        Alcotest.test_case "private + dissolved undefined" `Quick
          (check_step Private Sharing_dissolved None);
        Alcotest.test_case "init-private + adopted undefined" `Quick
          (check_step Init_private Adopted_by_neighbor None);
        Alcotest.test_case "race absorbing" `Quick test_race_absorbing;
        Alcotest.test_case "race-on-l total" `Quick test_race_on_l_total;
        Alcotest.test_case "settled states are final" `Quick test_settled_final;
      ] );
  ]
