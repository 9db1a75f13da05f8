(* A realistic producer/consumer pipeline with one subtle bug, analysed
   by every detector in the suite — a side-by-side view of their
   different verdicts (precision, misses, false alarms).

     dune exec examples/racy_queue.exe *)

open Dgrace_core
open Dgrace_sim

let items = 64
let item_bytes = 64

let program () =
  let ready = Array.init items (fun _ -> Sim.event ()) in
  let slots = Sim.static_alloc (8 * items) in
  let processed = Sim.static_alloc 4 in
  let stats_lock = Sim.mutex () in
  let producer () =
    for i = 0 to items - 1 do
      let buf = Sim.malloc item_bytes in
      Sim.write ~loc:"producer:fill" buf item_bytes;
      Sim.write ~loc:"queue:slot" (slots + (8 * i)) 8;
      Sim.event_set ready.(i)
    done
  in
  let consumer c =
    let i = ref c in
    while !i < items do
      Sim.event_wait ready.(!i);
      Sim.read ~loc:"queue:slot" (slots + (8 * !i)) 8;
      (* the consumer reads the item it was handed: race-free thanks to
         the event-flag edge *)
      Sim.read ~loc:"consumer:process" (slots + (8 * !i)) 8;
      (* the bug: "processed++" takes the lock only on even items *)
      if !i land 1 = 0 then
        Sim.with_lock stats_lock (fun () ->
            Sim.read ~loc:"consumer:processed" processed 4;
            Sim.write ~loc:"consumer:processed" processed 4)
      else begin
        Sim.read ~loc:"consumer:processed-bug" processed 4;
        Sim.write ~loc:"consumer:processed-bug" processed 4
      end;
      i := !i + 2
    done
  in
  let p = Sim.spawn producer in
  let c1 = Sim.spawn (fun () -> consumer 0) in
  let c2 = Sim.spawn (fun () -> consumer 1) in
  List.iter Sim.join [ p; c1; c2 ]

(* [program] under [spec] with the default schedule *)
let run spec program =
  match
    Engine.analyze (Engine.Config.make spec)
      (Engine.Source.Program { policy = Scheduler.default; main = program })
  with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let () =
  Printf.printf "%-14s %8s %10s %10s  %s\n" "detector" "races" "time(ms)"
    "peak KB" "verdict";
  List.iter
    (fun spec ->
      let s = run spec program in
      let verdict =
        match (Spec.name spec, s.race_count) with
        | "eraser", n when n > 1 -> "lockset discipline: false alarms"
        | "eraser", 1 -> "found the inconsistent lock"
        | _, 1 -> "exactly the seeded bug"
        | _, 0 -> "missed it"
        | _, _ -> "extra reports"
      in
      Printf.printf "%-14s %8d %10.2f %10d  %s\n" s.detector s.race_count
        (1000. *. s.elapsed)
        (s.mem.peak_bytes / 1024)
        verdict)
    [
      Spec.byte; Spec.word; Spec.dynamic;
      Spec.Djit { granularity = 4 };
      Spec.Drd; Spec.Inspector; Spec.Eraser;
    ]
