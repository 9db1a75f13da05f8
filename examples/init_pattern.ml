(* The initialisation pattern the paper's Init state is designed for:
   an array is zeroed wholesale, then its elements are updated under
   per-element locks.  The example prints the shadow-memory footprint
   of the byte detector, the dynamic detector, and the two Table 5
   ablations, showing where the savings come from.

     dune exec examples/init_pattern.exe *)

open Dgrace_core
open Dgrace_sim

let words = 4096
let rounds = 4

let program () =
  let arr = Sim.static_alloc (4 * words) in
  let locks = Array.init 16 (fun _ -> Sim.mutex ()) in
  (* init: one thread zeroes everything in a single epoch *)
  Sim.write ~loc:"init:zero-out" arr (4 * words);
  (* contiguous partitions; the block lock is held across the whole
     64-word block, so the block's elements stay in one epoch and can
     share one clock *)
  let block = words / 16 in
  let worker w =
    let lo = w * (words / 4) and hi = (w + 1) * (words / 4) in
    for _round = 1 to rounds do
      let b = ref (lo / block) in
      while !b * block < hi do
        Sim.with_lock locks.(!b) (fun () ->
            for i = !b * block to min hi ((!b + 1) * block) - 1 do
              Sim.read ~loc:"update" (arr + (4 * i)) 4;
              Sim.write ~loc:"update" (arr + (4 * i)) 4
            done);
        incr b
      done
    done
  in
  let ts = List.init 4 (fun w -> Sim.spawn (fun () -> worker w)) in
  List.iter Sim.join ts

(* [program] under [spec] with the default schedule *)
let run spec program =
  match
    Engine.analyze (Engine.Config.make spec)
      (Engine.Source.Program { policy = Scheduler.default; main = program })
  with
  | Ok s -> s
  | Error e -> failwith (Dgrace_resilience.Error.to_string e)

let () =
  Printf.printf "%-28s %8s %10s %12s %12s\n" "detector" "races" "peak VCs"
    "VC bytes" "avg share";
  List.iter
    (fun spec ->
      let s = run spec program in
      Printf.printf "%-28s %8d %10d %12d %12.1f\n" s.detector s.race_count
        s.mem.peak_vcs s.mem.peak_vc_bytes s.mem.avg_sharing)
    [
      Spec.byte;
      Spec.word;
      Spec.dynamic;
      Spec.Dynamic { init_state = true; init_sharing = false };
      Spec.Dynamic { init_state = false; init_sharing = false };
    ];
  print_newline ();
  print_endline
    "ft-dynamic shares one clock across the whole zero-out (Init state),";
  print_endline
    "then re-coalesces per-lock groups at the second epoch.  Disabling the";
  print_endline
    "Init state makes the sharing decision once, at first access — cheaper";
  print_endline
    "to decide but wrong for this pattern: watch its false alarms.";
  print_newline ();
  (* show one of the no-Init-state false alarms explicitly *)
  let s = run (Spec.Dynamic { init_state = false; init_sharing = false }) program in
  match s.races with
  | r :: _ ->
    Printf.printf "no-Init-state false alarm example:\n  %s\n"
      (Dgrace_events.Report.to_string r)
  | [] -> print_endline "(no false alarm in this interleaving)"
