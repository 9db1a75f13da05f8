(* The paper's Figure 1, reproduced: two threads, a lock [s] and a
   shared variable [x].  Thread 0 writes x under the lock; thread 1
   then acquires the lock but writes x *after* releasing nothing — the
   second write is concurrent with the first and DJIT+ flags it.

   The example prints the vector clocks as they evolve, matching the
   figure's annotations.

     dune exec examples/djit_figure1.exe *)

open Dgrace_core
open Dgrace_sim
open Dgrace_events

(* the recorded [events] under [spec] *)
let replay spec events =
  match Engine.analyze (Engine.Config.make spec) (Engine.Source.Events events) with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let () =
  let x = ref 0 in
  let trace = ref [] in
  let program () =
    x := Sim.static_alloc 4;
    let s = Sim.mutex () in
    let t1 =
      Sim.spawn (fun () ->
          (* thread 1: lock(s); ...; unlock(s); write(x)  — the write
             happens outside the critical section *)
          Sim.with_lock s (fun () -> ());
          Sim.write ~loc:"fig1:t1-write-x" !x 4)
    in
    (* thread 0: lock(s); write(x); unlock(s) *)
    Sim.with_lock s (fun () -> Sim.write ~loc:"fig1:t0-write-x" !x 4);
    Sim.join t1
  in
  (* record the stream so we can narrate it, then analyse it *)
  let events = ref [] in
  let _ = Sim.run ~policy:Scheduler.Round_robin ~sink:(fun e -> events := e :: !events) program in
  trace := List.rev !events;

  print_endline "event stream (paper Fig. 1, T0 and T1 with lock s):";
  List.iter (fun e -> Printf.printf "  %s\n" (Event.to_string e)) !trace;

  (* replay under DJIT+ and under FastTrack-dynamic: both must report
     the same single write-write race on x *)
  print_newline ();
  List.iter
    (fun spec ->
      let s = replay spec (List.to_seq !trace) in
      Printf.printf "%s: %d race(s)\n" s.detector s.race_count;
      List.iter (fun r -> Printf.printf "  %s\n" (Report.to_string r)) s.races)
    [ Spec.Djit { granularity = 4 }; Spec.dynamic ];

  (* narrate the clocks like the figure: T0 and T1 vector clocks around
     the synchronisation *)
  print_newline ();
  print_endline "clock evolution (c.f. Fig. 1 annotations):";
  let env = Dgrace_detectors.Vc_env.create () in
  List.iter
    (fun e ->
      (match e with
       | Event.Acquire { tid; lock; _ } ->
         Dgrace_detectors.Vc_env.acquire env ~tid ~lock
       | Event.Release { tid; lock; _ } ->
         Dgrace_detectors.Vc_env.release env ~tid ~lock
       | Event.Fork { parent; child } ->
         Dgrace_detectors.Vc_env.fork env ~parent ~child
       | Event.Join { parent; child } ->
         Dgrace_detectors.Vc_env.join env ~parent ~child
       | _ -> ());
      Printf.printf "  %-28s T0=%s T1=%s\n" (Event.to_string e)
        (Dgrace_vclock.Vector_clock.to_string
           (Dgrace_detectors.Vc_env.clock_of env 0))
        (Dgrace_vclock.Vector_clock.to_string
           (Dgrace_detectors.Vc_env.clock_of env 1)))
    !trace
