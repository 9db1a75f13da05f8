(* The eleven benchmark workloads: seeded race counts under every
   detector, determinism, and the paper's per-workload signatures. *)

open Dgrace_core
open Dgrace_workloads
open Dgrace_events

let small w = Workload.with_params ~scale:1 w

let run ?(suppression = Suppression.default_runtime) spec (w : Workload.t) =
  Tutil.(analyze (config ~suppression spec) (program (w.program (small w))))

let find name = Option.get (Registry.find name)

let test_registry () =
  Alcotest.(check int) "eleven workloads" 11 (List.length Registry.all);
  Alcotest.(check (list string)) "table 1 order"
    [ "facesim"; "ferret"; "fluidanimate"; "raytrace"; "x264"; "canneal";
      "dedup"; "streamcluster"; "ffmpeg"; "pbzip2"; "hmmsearch" ]
    Registry.names;
  Alcotest.(check bool) "find" true (Registry.find "x264" <> None);
  Alcotest.(check bool) "find missing" true (Registry.find "nope" = None)

let test_with_params () =
  let w = find "ferret" in
  let p = Workload.with_params ~threads:8 w in
  Alcotest.(check int) "override" 8 p.threads;
  Alcotest.(check int) "default kept" w.defaults.scale p.scale

(* every workload finds exactly its seeded races under byte FastTrack *)
let test_expected_races_byte () =
  List.iter
    (fun (w : Workload.t) ->
      let s = run Spec.byte w in
      Alcotest.(check int) (w.name ^ " byte races") w.expected_races s.race_count)
    Registry.all

(* the dynamic detector agrees except for the documented streamcluster
   false alarms *)
let test_dynamic_agrees_with_byte () =
  List.iter
    (fun (w : Workload.t) ->
      let s = run Spec.dynamic w in
      if w.name = "streamcluster" then
        Alcotest.(check bool) "streamcluster: a few false alarms" true
          (s.race_count >= 0 && s.race_count <= 8)
      else
        Alcotest.(check int) (w.name ^ " dynamic races") w.expected_races
          s.race_count)
    Registry.all

(* word-granularity signatures from the paper's §V.A *)
let test_word_signatures () =
  let x264 = run Spec.word (find "x264") in
  Alcotest.(check int) "x264: packed bytes masked to words" 996 x264.race_count;
  let ffmpeg = run Spec.word (find "ffmpeg") in
  Alcotest.(check int) "ffmpeg: word-granularity false alarm" 2 ffmpeg.race_count

(* raytrace carries a suppressed runtime race: DRD (no suppressions)
   reports it, our detectors hide it *)
let test_raytrace_suppression () =
  let dyn = run Spec.dynamic (find "raytrace") in
  Alcotest.(check int) "dynamic suppresses pthread race" 2 dyn.race_count;
  Alcotest.(check int) "suppressed count" 1 dyn.suppressed;
  let drd = run ~suppression:Suppression.empty Spec.Drd (find "raytrace") in
  Alcotest.(check int) "drd reports it" 3 drd.race_count

(* eraser false-alarms heavily on barrier-phased programs and misses
   nothing it is designed for: just check the qualitative signature *)
let test_eraser_signature () =
  let s = run ~suppression:Suppression.empty Spec.Eraser (find "facesim") in
  Alcotest.(check bool) "flood of false alarms" true (s.race_count > 100);
  let s = run ~suppression:Suppression.empty Spec.Eraser (find "dedup") in
  Alcotest.(check int) "pipeline under locks is clean" 0 s.race_count

(* per-workload memory/statistics signatures *)
let test_dynamic_memory_signatures () =
  (* pbzip2: highest sharing *)
  let s = run Spec.dynamic (find "pbzip2") in
  Alcotest.(check bool) "pbzip2 avg sharing high" true (s.mem.avg_sharing > 16.);
  (* canneal: no sharing benefit *)
  let c = run Spec.dynamic (find "canneal") in
  Alcotest.(check bool) "canneal avg sharing low" true (c.mem.avg_sharing < 8.);
  (* dynamic uses far fewer clocks than byte on facesim *)
  let fb = run Spec.byte (find "facesim") in
  let fd = run Spec.dynamic (find "facesim") in
  Alcotest.(check bool) "facesim clocks collapse" true
    (fd.mem.peak_vcs * 10 < fb.mem.peak_vcs)

let test_same_epoch_signatures () =
  let open Dgrace_detectors in
  (* streamcluster: dynamic lifts the same-epoch ratio dramatically *)
  let sb = run Spec.byte (find "streamcluster") in
  let sd = run Spec.dynamic (find "streamcluster") in
  Alcotest.(check bool) "dynamic same-epoch ratio higher" true
    (Run_stats.same_epoch_ratio sd.stats
     > Run_stats.same_epoch_ratio sb.stats +. 0.15)

(* dedup: the allocation-churn signature *)
let test_dedup_churn () =
  let s = run Spec.dynamic (find "dedup") in
  let sim = Option.get s.sim in
  Alcotest.(check bool) "large cumulative allocation" true
    (sim.total_allocated > 50_000);
  Alcotest.(check bool) "clocks are retired (few live at end)" true
    (s.mem.total_vcs > 4 * s.mem.peak_vcs)

(* the §VI related-work detectors show their designed blind spots on
   the suite *)
let test_related_signatures () =
  (* RaceTrack-style refinement loses ferret's rare counter races but
     keeps the recurring ones elsewhere *)
  let rt = run (Spec.Racetrack { region = 64 }) (find "ferret") in
  Alcotest.(check int) "racetrack misses ferret" 0 rt.race_count;
  let rt = run (Spec.Racetrack { region = 64 }) (find "facesim") in
  Alcotest.(check int) "racetrack confirms recurring facesim races" 3 rt.race_count;
  (* LiteRace samples away most of x264's hot races *)
  let lr = run Spec.Literace (find "x264") in
  Alcotest.(check bool) "literace finds some x264 races" true (lr.race_count > 0);
  Alcotest.(check bool) "literace misses most x264 races" true (lr.race_count < 500);
  (* MultiRace agrees with byte on the real races of hmmsearch/pbzip2 *)
  List.iter
    (fun n ->
      let m = run Spec.Multirace (find n) in
      Alcotest.(check int) (n ^ " multirace") (find n).expected_races m.race_count)
    [ "hmmsearch"; "pbzip2"; "fluidanimate" ]

(* workloads are deterministic: two runs, identical summaries *)
let test_determinism () =
  List.iter
    (fun (w : Workload.t) ->
      let s1 = run Spec.dynamic w and s2 = run Spec.dynamic w in
      Alcotest.(check int) (w.name ^ " races stable") s1.race_count s2.race_count;
      Alcotest.(check int) (w.name ^ " accesses stable") s1.stats.accesses
        s2.stats.accesses;
      Alcotest.(check int) (w.name ^ " peak bytes stable") s1.mem.peak_bytes
        s2.mem.peak_bytes)
    Registry.all

(* scale parameter scales the stream *)
let test_scale () =
  let w = find "hmmsearch" in
  let run scale =
    Tutil.(
      analyze (config Spec.No_detection)
        (program (w.program (Workload.with_params ~scale w))))
  in
  let s1 = run 1 in
  let s2 = run 2 in
  Alcotest.(check bool) "roughly doubles" true
    (s2.stats.accesses = 0 (* null detector counts nothing *)
     &&
     let a1 = (Option.get s1.sim).accesses and a2 = (Option.get s2.sim).accesses in
     a2 > (3 * a1) / 2)

(* every workload runs to completion under every detector *)
let test_all_run_everywhere () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun spec -> ignore (run spec w : Engine.summary))
        [ Spec.No_detection; Spec.word; Spec.Djit { granularity = 4 };
          Spec.Inspector; Spec.Eraser; Spec.Multirace;
          Spec.Racetrack { region = 64 }; Spec.Literace; Spec.Dynamic_ext;
          Spec.Dynamic { init_state = true; init_sharing = false };
          Spec.Dynamic { init_state = false; init_sharing = false } ])
    Registry.all

(* A handoff channel's values belong to its run: a put reaches the
   matching take, also across stages, and a take with no put blocks
   until the run deadlocks. *)
let test_handoff () =
  let open Dgrace_sim in
  let got = ref [] in
  ignore
    (Sim.run (fun () ->
         let q = Wutil.Handoff.create 3 in
         let t =
           Sim.spawn (fun () ->
               for i = 0 to 2 do got := Wutil.Handoff.take q i :: !got done)
         in
         List.iteri (fun i v -> Wutil.Handoff.put q i ~value:v) [ 7; -1; max_int ];
         Sim.join t));
  Alcotest.(check (list int)) "values in order" [ 7; -1; max_int ] (List.rev !got);
  match Sim.run (fun () -> ignore (Wutil.Handoff.take (Wutil.Handoff.create 1) 0)) with
  | _ -> Alcotest.fail "a take with no put returned"
  | exception Sim.Deadlock { blocked = [ 0 ]; _ } -> ()

let suites : unit Alcotest.test list =
  [
    ( "workloads.registry",
      [
        Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "with_params" `Quick test_with_params;
        Alcotest.test_case "handoff channel" `Quick test_handoff;
      ] );
    ( "workloads.races",
      [
        Alcotest.test_case "byte finds seeded races" `Slow test_expected_races_byte;
        Alcotest.test_case "dynamic agrees with byte" `Slow test_dynamic_agrees_with_byte;
        Alcotest.test_case "word signatures" `Slow test_word_signatures;
        Alcotest.test_case "raytrace suppression" `Slow test_raytrace_suppression;
        Alcotest.test_case "eraser signature" `Slow test_eraser_signature;
      ] );
    ( "workloads.signatures",
      [
        Alcotest.test_case "dynamic memory" `Slow test_dynamic_memory_signatures;
        Alcotest.test_case "same-epoch ratios" `Slow test_same_epoch_signatures;
        Alcotest.test_case "dedup churn" `Slow test_dedup_churn;
        Alcotest.test_case "related-work signatures" `Slow test_related_signatures;
      ] );
    ( "workloads.robustness",
      [
        Alcotest.test_case "determinism" `Slow test_determinism;
        Alcotest.test_case "scale" `Quick test_scale;
        Alcotest.test_case "all detectors run" `Slow test_all_run_everywhere;
      ] );
  ]
