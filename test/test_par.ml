(* Differential proof for the sharded parallel replay (doc/parallel.md):
   for every bundled workload x seed x shard count, the sharded
   analysis must be bit-identical to the sequential one on everything
   observable — the race reports themselves (content and order), the
   per-state transition counts, the stream statistics, and the exit
   code.  Both the dynamic-granularity and the byte detector run the
   gauntlet.  If a future change lets any sharing decision leak across
   an address line, or the merge lose determinism, this is the test
   that goes red. *)

open Dgrace_core
open Dgrace_events
open Dgrace_workloads
module Trace_shard = Dgrace_trace.Trace_shard

let seeds = [ 1; 2; 3 ]
let shard_counts = [ 2; 4; 7 ]
let policy seed = Dgrace_sim.Scheduler.Chunked { seed; chunk = 64 }

(* One recording per (workload, seed), shared by every shard count and
   spec: the comparison is about the analysis, not the interleaving. *)
let recordings : (string * int, Event.t array) Hashtbl.t = Hashtbl.create 64

let recorded (w : Workload.t) seed =
  match Hashtbl.find_opt recordings (w.name, seed) with
  | Some a -> a
  | None ->
    let p = Workload.with_params ~scale:1 ~seed w in
    let buf = ref [] in
    ignore
      (Workload.run ~policy:(policy seed) ~params:p
         ~sink:(fun ev -> buf := ev :: !buf)
         w);
    let a = Array.of_list (List.rev !buf) in
    Hashtbl.replace recordings (w.name, seed) a;
    a

let json = Alcotest.testable (Fmt.of_to_string Dgrace_obs.Json.to_string)
    Dgrace_obs.Json.equal

let report = Alcotest.testable (Fmt.of_to_string Report.to_string) ( = )

let transitions_json (s : Engine.summary) =
  match s.transitions with
  | None -> Dgrace_obs.Json.Null
  | Some m -> Dgrace_obs.State_matrix.to_json m

let check_equivalent ~ctx (seq : Engine.summary) (par : Engine.summary) =
  Alcotest.(check (list report)) (ctx ^ ": race reports") seq.races par.races;
  Alcotest.(check int) (ctx ^ ": race count") seq.race_count par.race_count;
  Alcotest.(check int) (ctx ^ ": suppressed") seq.suppressed par.suppressed;
  Alcotest.check json (ctx ^ ": transition counts") (transitions_json seq)
    (transitions_json par);
  Alcotest.(check int)
    (ctx ^ ": exit code")
    (Engine.exit_code_of_summary seq)
    (Engine.exit_code_of_summary par);
  let st (s : Engine.summary) =
    let r = s.stats in
    Dgrace_detectors.Run_stats.
      (r.accesses, r.reads, r.writes, r.same_epoch, r.sync_ops, r.allocs,
       r.frees)
  in
  Alcotest.(check (pair (pair int int) (pair (pair int int) (pair int (pair int int)))))
    (ctx ^ ": stream stats")
    (let a, b, c, d, e, f, g = st seq in
     ((a, b), ((c, d), (e, (f, g)))))
    (let a, b, c, d, e, f, g = st par in
     ((a, b), ((c, d), (e, (f, g)))))

let diff_workload (w : Workload.t) spec () =
  List.iter
    (fun seed ->
      let events = recorded w seed in
      let seq = Tutil.(analyze (config spec) (event_array events)) in
      List.iter
        (fun shards ->
          let par = Tutil.(analyze (config ~shards spec) (event_array events)) in
          let ctx = Printf.sprintf "%s seed=%d shards=%d" w.name seed shards in
          check_equivalent ~ctx seq par)
        shard_counts)
    seeds

(* The batch dispatch cross-product on real workloads: the clustered
   struct-of-arrays path (one shard, and per shard) and the per-event
   shard path (forced by a heartbeat) must match per-event dispatch on
   everything [check_equivalent] looks at.  One seed — the batch path has no
   scheduling freedom of its own, so extra seeds only re-test the
   splitter (covered above). *)
let diff_batch_workload (w : Workload.t) () =
  let events = recorded w 1 in
  let batches =
    Trace_shard.batches_of (Array.mapi (fun i ev -> (i, ev)) events)
  in
  let heartbeat = Some (4096, fun (_ : int) -> ()) in
  let run ?progress shards source =
    Tutil.(analyze (config ~shards ?progress Spec.dynamic) source)
  in
  let seq = run 1 (Tutil.event_array events) in
  List.iter
    (fun (name, s) ->
      check_equivalent ~ctx:(Printf.sprintf "%s %s" w.name name) seq s)
    [
      ( "batches",
        run 1
          (Engine.Source.Batches (fun consume -> Array.iter consume batches)) );
      ("4 shards batched", run 4 (Tutil.event_array events));
      ( "4 shards per-event",
        run ?progress:heartbeat 4 (Tutil.event_array events) );
    ]

(* ------------------------------------------------------------------ *)
(* splitter invariants *)

let mk_access addr = Event.Access { tid = 0; kind = Write; addr; size = 4; loc = "t" }

let test_split_identity () =
  (* one shard is exactly the input stream, offsets 0..n-1 *)
  let events = recorded (Option.get (Registry.find "ffmpeg")) 1 in
  let plan = Trace_shard.split ~shards:1 ~granule:4096 events in
  Alcotest.(check int) "one shard" 1 (Array.length plan.shards);
  Alcotest.(check int) "all events" (Array.length events)
    (Array.length plan.shards.(0));
  Array.iteri
    (fun i (off, ev) ->
      assert (off = i);
      assert (ev == events.(i)))
    plan.shards.(0)

let test_split_routing () =
  let events = recorded (Option.get (Registry.find "pbzip2")) 1 in
  let k = 4 in
  let plan = Trace_shard.split ~shards:k ~granule:4096 events in
  (* every access lands on exactly one shard; every sync event on all *)
  let access_copies = Array.make (Array.length events) 0 in
  let sync_copies = Array.make (Array.length events) 0 in
  Array.iter
    (Array.iter (fun (off, ev) ->
         match ev with
         | Event.Access _ -> access_copies.(off) <- access_copies.(off) + 1
         | _ -> sync_copies.(off) <- sync_copies.(off) + 1))
    plan.shards;
  Array.iteri
    (fun off ev ->
      match ev with
      | Event.Access _ ->
        Alcotest.(check int)
          (Printf.sprintf "access %d on one shard" off)
          1 access_copies.(off)
      | _ ->
        Alcotest.(check int)
          (Printf.sprintf "event %d broadcast" off)
          k sync_copies.(off))
    events;
  (* per-shard offsets strictly increase: trace order is preserved *)
  Array.iter
    (fun shard ->
      ignore
        (Array.fold_left
           (fun last (off, _) ->
             assert (off > last);
             off)
           (-1) shard))
    plan.shards

let test_split_straddle () =
  (* an access straddling a granule line welds the two lines onto one
     shard: no other shard may then own either line *)
  let g = 4096 in
  let events =
    [|
      mk_access (g - 2);  (* straddles lines 0 and 1 *)
      mk_access 16;  (* line 0 *)
      mk_access (g + 16);  (* line 1 *)
      mk_access (10 * g);  (* unrelated line *)
    |]
  in
  let plan = Trace_shard.split ~shards:8 ~granule:g events in
  Alcotest.(check int) "straddling counted" 1 plan.straddling;
  let owner = ref (-1) in
  Array.iteri
    (fun s shard ->
      Array.iter
        (fun (off, _) ->
          if off <= 2 then begin
            if !owner = -1 then owner := s;
            Alcotest.(check int)
              (Printf.sprintf "event %d on welded shard" off)
              !owner s
          end)
        shard)
    plan.shards

let test_split_rejects () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Trace_shard.split: shards must be >= 1") (fun () ->
      ignore (Trace_shard.split ~shards:0 ~granule:4096 [||]));
  Alcotest.check_raises "non-pow2 granule"
    (Invalid_argument "Trace_shard.split: granule must be a power of two")
    (fun () -> ignore (Trace_shard.split ~shards:2 ~granule:100 [||]))

(* ------------------------------------------------------------------ *)
(* budgets apply per shard, and the merged summary keeps the
   resilience contract: partial/degraded still flag exit 3 and races
   stay a lower bound *)

let test_budget_partial () =
  let events = recorded (Option.get (Registry.find "pbzip2")) 1 in
  let budget = Dgrace_resilience.Budget.make ~max_events:1000 () in
  let s =
    Tutil.(analyze (config ~budget ~shards:4 Spec.dynamic) (event_array events))
  in
  Alcotest.(check bool) "partial" true (s.partial <> None);
  Alcotest.(check int) "exit 3" Dgrace_resilience.Error.exit_partial
    (Engine.exit_code_of_summary s)

let test_budget_degraded () =
  let events = recorded (Option.get (Registry.find "raytrace")) 1 in
  let seq_races =
    Tutil.((analyze (config Spec.dynamic) (event_array events)).race_count)
  in
  let budget = Dgrace_resilience.Budget.make ~max_shadow_bytes:100_000 () in
  let s =
    Tutil.(analyze (config ~budget ~shards:4 Spec.dynamic) (event_array events))
  in
  Alcotest.(check bool) "degraded" true s.degraded;
  Alcotest.(check bool) "races still reported (lower bound)" true
    (s.race_count <= seq_races);
  Alcotest.(check int) "exit 3" Dgrace_resilience.Error.exit_partial
    (Engine.exit_code_of_summary s)

(* ------------------------------------------------------------------ *)
(* observability composes with sharding: per-shard recorders merge to
   the sequential run's final sample, and a traced sharded replay
   exports a validating timeline with one lane per shard *)

let test_sharded_metrics_merge () =
  let events = recorded (Option.get (Registry.find "dedup")) 1 in
  let final (s : Engine.summary) =
    match s.timeseries with
    | None -> Alcotest.fail "sample_every given but no time-series"
    | Some r -> (
      match List.rev (Dgrace_obs.Sampler.samples (Dgrace_obs.Recorder.sampler r)) with
      | last :: _ -> (last.at_event, Array.to_list last.values)
      | [] -> Alcotest.fail "empty time-series")
  in
  let seq =
    Tutil.(analyze (config ~sample_every:512 Spec.dynamic) (event_array events))
  in
  List.iter
    (fun shards ->
      let par =
        Tutil.(
          analyze (config ~sample_every:512 ~shards Spec.dynamic) (event_array events))
      in
      (* the merged values (additive sources) must equal the sequential
         run's last sample; the merged at_event counts each broadcast
         sync event once per shard, so it only matches at shards=1 *)
      Alcotest.(check (list int))
        (Printf.sprintf "final values equal sequential at shards=%d" shards)
        (snd (final seq))
        (snd (final par));
      if shards = 1 then
        Alcotest.(check int) "event count equals sequential at shards=1"
          (fst (final seq))
          (fst (final par)))
    [ 1; 4 ]

let test_sharded_trace_validates () =
  let events = recorded (Option.get (Registry.find "pbzip2")) 1 in
  let tracer = Dgrace_obs.Span.create () in
  let traced =
    Tutil.(
      analyze
        (config ~tracer ~sample_every:1024 ~shards:4 Spec.dynamic)
        (event_array events))
  in
  let plain = Tutil.(analyze (config Spec.dynamic) (event_array events)) in
  Alcotest.(check (list report)) "tracing does not change the races"
    plain.races traced.races;
  let doc = Dgrace_obs.Chrome_trace.to_json tracer in
  match Dgrace_obs.Chrome_trace.phases doc with
  | Error e -> Alcotest.failf "sharded trace must validate: %s" e
  | Ok r ->
    (* main + 4 shard lanes, each shard with a phases lane (the main
       lane records no per-access timers) *)
    Alcotest.(check bool)
      (Printf.sprintf "at least 9 lanes, got %d" r.lanes)
      true (r.lanes >= 9);
    let lanes_with name =
      List.filter
        (fun (p : Dgrace_obs.Chrome_trace.phase) -> p.phase_name = name)
        r.phases
      |> List.map (fun (p : Dgrace_obs.Chrome_trace.phase) -> p.phase_lane)
    in
    Alcotest.(check (list string))
      "every shard ran under a shard.run span"
      [ "shard0"; "shard1"; "shard2"; "shard3" ]
      (List.sort compare (lanes_with "shard.run"));
    Alcotest.(check (list string))
      "sampled dispatch timers on every shard's phases lane"
      [ "shard0 phases"; "shard1 phases"; "shard2 phases"; "shard3 phases" ]
      (List.sort compare (lanes_with "detector.on_event"))

(* ------------------------------------------------------------------ *)

let suites : unit Alcotest.test list =
  let diff_cases spec spec_name =
    List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case
          (Printf.sprintf "%s [%s] seeds x shards" w.name spec_name)
          `Slow (diff_workload w spec))
      Registry.all
  in
  [
    ( "par.differential.dynamic",
      diff_cases Spec.dynamic "dynamic" );
    ( "par.differential.byte",
      diff_cases Spec.byte "byte" );
    ( "par.differential.batch",
      List.map
        (fun (w : Workload.t) ->
          Alcotest.test_case
            (Printf.sprintf "%s batched x per-event x vc-intern" w.name)
            `Slow (diff_batch_workload w))
        Registry.all );
    ( "par.split",
      [
        Alcotest.test_case "one shard is the identity" `Quick
          test_split_identity;
        Alcotest.test_case "routing: accesses once, sync broadcast" `Quick
          test_split_routing;
        Alcotest.test_case "straddling access welds lines" `Quick
          test_split_straddle;
        Alcotest.test_case "invalid arguments rejected" `Quick
          test_split_rejects;
      ] );
    ( "par.budget",
      [
        Alcotest.test_case "event cap stops shards, merged partial" `Quick
          test_budget_partial;
        Alcotest.test_case "shadow cap degrades, races lower bound" `Quick
          test_budget_degraded;
      ] );
    ( "par.obs",
      [
        Alcotest.test_case "sharded metrics merge to sequential final" `Quick
          test_sharded_metrics_merge;
        Alcotest.test_case "sharded trace validates, one lane per shard"
          `Quick test_sharded_trace_validates;
      ] );
  ]
