(* Quickstart: write a tiny multithreaded program against the simulator
   API, run it under the dynamic-granularity detector, and print the
   races it finds.

     dune exec examples/quickstart.exe *)

open Dgrace_core
open Dgrace_sim
open Dgrace_events

(* A worker pool sums into per-worker slots (fine) and into one shared
   total without a lock (the bug). *)
let program () =
  let slots = Sim.static_alloc (4 * 4) in
  let total = Sim.static_alloc 4 in
  let m = Sim.mutex () in
  let workers =
    List.init 4 (fun w ->
        Sim.spawn (fun () ->
            for _ = 1 to 100 do
              (* private slot: no lock needed, no race *)
              Sim.read ~loc:"worker:slot" (slots + (4 * w)) 4;
              Sim.write ~loc:"worker:slot" (slots + (4 * w)) 4
            done;
            (* aggregate under the lock ... *)
            Sim.with_lock m (fun () ->
                Sim.read ~loc:"worker:total" total 4;
                Sim.write ~loc:"worker:total" total 4);
            (* ... but the final "progress" poke forgets the lock *)
            Sim.write ~loc:"worker:progress-bug" total 4))
  in
  List.iter Sim.join workers

(* [program] under [spec] with the default schedule *)
let run spec program =
  match
    Engine.analyze (Engine.Config.make spec)
      (Engine.Source.Program { policy = Scheduler.default; main = program })
  with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let () =
  let summary = run Spec.dynamic program in
  Format.printf "%a@." Engine.pp_summary summary;
  match summary.races with
  | [] -> print_endline "no races found (unexpected!)"
  | races ->
    Printf.printf "\n%d race(s); the first one:\n  %s\n" (List.length races)
      (Report.to_string (List.hd races))
