(* Record once, analyse many times: run a workload recording its event
   stream to a compact trace file, then replay the identical
   interleaving through several detectors.  This is how the benchmark
   methodology guarantees every detector sees the same execution.

     dune exec examples/record_replay.exe *)

open Dgrace_core
open Dgrace_workloads
open Dgrace_trace

(* the recorded [events] under [spec] *)
let replay spec events =
  match Engine.analyze (Engine.Config.make spec) (Engine.Source.Events events) with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let () =
  let w = Option.get (Registry.find "pbzip2") in
  let path = Filename.temp_file "pbzip2" ".trace" in
  let sim, n =
    Trace_writer.to_file path (fun sink ->
        ignore (Workload.run ~sink w))
  in
  ignore sim;
  let bytes = (Unix.stat path).Unix.st_size in
  Printf.printf "recorded %s: %d events, %d bytes (%.1f bytes/event)\n\n"
    w.Workload.name n bytes
    (float_of_int bytes /. float_of_int (max n 1));

  Printf.printf "%-14s %8s %12s\n" "detector" "races" "same-epoch";
  List.iter
    (fun spec ->
      let events = Trace_reader.fold_file path (fun acc e -> e :: acc) [] in
      let s = replay spec (List.to_seq (List.rev events)) in
      Printf.printf "%-14s %8d %11.0f%%\n" s.detector s.race_count
        (100. *. Dgrace_detectors.Run_stats.same_epoch_ratio s.stats))
    [ Spec.byte; Spec.word; Spec.dynamic; Spec.Drd ];
  Sys.remove path
