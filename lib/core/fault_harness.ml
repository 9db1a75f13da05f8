open Dgrace_sim
open Dgrace_trace
module Error = Dgrace_resilience.Error
module Fault = Dgrace_resilience.Fault

type fault =
  | Trace_fault of Fault.trace_fault
  | Stall
  | Lost_unlock

let all =
  List.map (fun f -> Trace_fault f) Fault.all @ [ Stall; Lost_unlock ]

let name = function
  | Trace_fault f -> Fault.name f
  | Stall -> "stall"
  | Lost_unlock -> "lost-unlock"

let names = List.map name all

let of_name s =
  match Fault.of_name s with
  | Some f -> Some (Trace_fault f)
  | None -> (
    match s with
    | "stall" -> Some Stall
    | "lost-unlock" -> Some Lost_unlock
    | _ -> None)

type outcome =
  | Completed of Engine.summary
  | Recovered of {
      recovery : Trace_reader.recovery;
      summary : Engine.summary;
    }
  | Declared of Error.t
  | Unexpected of string

let acceptable = function
  | Completed _ | Recovered _ | Declared _ -> true
  | Unexpected _ -> false

let describe = function
  | Completed s ->
    Printf.sprintf "completed: %d events, %d race(s)"
      s.Engine.stats.Dgrace_detectors.Run_stats.accesses s.Engine.race_count
  | Recovered { recovery = r; summary = s } ->
    Printf.sprintf
      "recovered: %d event(s) salvaged, %d byte(s) dropped in %d gap(s), %d race(s)"
      r.Trace_reader.events r.Trace_reader.dropped_bytes r.Trace_reader.gaps
      s.Engine.race_count
  | Declared e -> "declared: " ^ Error.to_string e
  | Unexpected msg -> "UNEXPECTED: " ^ msg

(* ------------------------------------------------------------------ *)
(* trace faults: record, corrupt, strict replay, resync replay *)

let read_image path = In_channel.with_open_bin path In_channel.input_all

let write_image path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let with_temp f =
  let path = Filename.temp_file "dgrace-fault" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let inject_trace_fault ~spec ~seed ~program tf =
  with_temp @@ fun clean_path ->
  with_temp @@ fun bad_path ->
  let (_ : Sim.result), (_ : int) =
    Trace_writer.to_file clean_path (fun sink ->
        Sim.run ~policy:(Scheduler.Chunked { seed; chunk = 8 }) ~sink program)
  in
  write_image bad_path (Fault.apply ~seed tf (read_image clean_path));
  let strict =
    let ic = open_in_bin bad_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        Engine.analyze (Engine.Config.make spec)
          (Engine.Source.Events (Trace_reader.read ~path:bad_path ic)))
  in
  match strict with
  | Ok summary -> Completed summary
  | Error (Error.Corrupt_trace _) -> (
    (* the declared path worked; now prove the resync path salvages
       what it can from the same image *)
    let events, recovery = Trace_reader.read_file_resync bad_path in
    match
      Engine.analyze (Engine.Config.make spec)
        (Engine.Source.Events (List.to_seq events))
    with
    | Ok summary -> Recovered { recovery; summary }
    | Error e -> Declared e)
  | Error e -> Declared e

(* ------------------------------------------------------------------ *)
(* scheduler faults: synthetic workloads with the bug baked in *)

(* A worker waits on a flag that is never set; main joins it. *)
let stall_program () =
  let flag = Sim.event () in
  let a = Sim.malloc 8 in
  let t =
    Sim.spawn (fun () ->
        Sim.write a 4;
        Sim.event_wait flag)
  in
  Sim.write ~loc:"stall.c:9" (a + 4) 4;
  Sim.join t

(* A thread exits while holding a mutex; the next thread that wants it
   blocks forever. *)
let lost_unlock_program () =
  let m = Sim.mutex () in
  let a = Sim.malloc 8 in
  let t1 =
    Sim.spawn (fun () ->
        Sim.lock m;
        Sim.write a 4 (* exits without unlock *))
  in
  Sim.join t1;
  let t2 =
    Sim.spawn (fun () ->
        Sim.lock m;
        Sim.write a 4;
        Sim.unlock m)
  in
  Sim.join t2

let inject_sched_fault ~spec ~seed prog =
  match
    Engine.analyze (Engine.Config.make spec)
      (Engine.Source.Program
         { policy = Scheduler.Chunked { seed; chunk = 8 }; main = prog })
  with
  | Ok summary -> Completed summary
  | Error e -> Declared e

let run ?(spec = Spec.dynamic) ~seed ~program fault =
  match
    match fault with
    | Trace_fault tf -> inject_trace_fault ~spec ~seed ~program tf
    | Stall -> inject_sched_fault ~spec ~seed stall_program
    | Lost_unlock -> inject_sched_fault ~spec ~seed lost_unlock_program
  with
  | outcome -> outcome
  | exception exn -> Unexpected (Printexc.to_string exn)
