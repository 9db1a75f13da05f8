(* The end-to-end part: times the shipped racedet binary, one child
   process at a time, on the default paths a user runs.  It never
   passes an escape-hatch flag, so it keeps measuring the same thing
   when those flags go. *)

module Json = Dgrace_obs.Json

type trace = {
  program : string;
  scale : int;
  path : string;
  expected : int;  (** races the program seeds *)
  mutable events : int;
  mutable accesses : int;
}

let seed_args seed = [ "--seed"; string_of_int seed; "--sched-seed"; string_of_int seed ]

(* The invocations timed in every rep, each against every trace.
   Re-recording the traces each rep measures set-up as often as the
   rest and across the same stretch of time.  [watched_evps] asks for a
   budget and a heartbeat, which today forces the per-event path. *)
let shapes seed =
  [
    ("setup_s", fun t -> [ "record"; "--trace-v2"; t.program; t.path; "-s"; string_of_int t.scale ] @ seed_args seed);
    ("replay_evps", fun t -> [ "replay"; t.path; "-d"; "dynamic" ]);
    ("replay_byte_evps", fun t -> [ "replay"; t.path; "-d"; "byte" ]);
    ( "watched_evps",
      fun t ->
        [
          "replay"; t.path; "-d"; "dynamic"; "--max-shadow-bytes"; "4000000000"; "--max-events";
          "1000000000"; "--deadline-s"; "3600"; "--progress"; "--progress-every"; "65536";
        ] );
    ("run_evps", fun t -> [ "run"; t.program; "-d"; "dynamic"; "-s"; string_of_int t.scale ] @ seed_args seed);
  ]

let mb bytes = float bytes /. 1e6
let sum = List.fold_left ( +. ) 0.

let run ~racedet ~work ~seed ~seconds ~min_reps (mix : Mixes.t) =
  (* racedet and the calibration kernel share one CPU, so each kernel
     sample sees the speed the invocation next to it saw *)
  let cpu_id = Child.pin_cpu () in
  let tally = Child.tally () in
  let calib = ref [] (* kernel samples, latest first *) and last = ref (Calib.sample ()) in
  (* an invocation and its cost: its CPU time scaled by the kernel
     samples just before and just after it *)
  let invoke args =
    let before = !last in
    let o = Child.run ~racedet ~work args in
    let after = Calib.sample () in
    last := after;
    calib := after :: !calib;
    (o, Calib.reference_s *. Child.cpu_s o /. ((before +. after) /. 2.))
  in
  let shapes = shapes seed in
  let traces =
    List.map
      (fun (program, scale) ->
        let path = Filename.concat work (Printf.sprintf "%s.s%d.v2" program scale) in
        { program; scale; path; expected = Mixes.expected_races program; events = 0; accesses = 0 })
      mix.programs
  in
  let check shape t (o : Child.outcome) =
    let result =
      if shape = "setup_s" then
        Result.bind (Child.check_record o) (fun r ->
            if r = (t.events, t.accesses) then Ok () else Error "recorded a different trace")
      else Child.check_detect ~expected:t.expected ~accesses:t.accesses o
    in
    ignore (Child.gate tally ~what:(Child.command o) result)
  in
  List.iter
    (fun t ->
      let o, _ = invoke (List.assoc "setup_s" shapes t) in
      match Child.gate tally ~what:(Child.command o) (Child.check_record o) with
      | Some (e, a) ->
        t.events <- e;
        t.accesses <- a
      | None -> failwith ("cannot record " ^ t.program))
    traces;
  let events = List.fold_left (fun n t -> n + t.events) 0 traces in
  let trace_bytes = List.fold_left (fun n t -> n + (Unix.stat t.path).st_size) 0 traces in
  let walls = Hashtbl.create 64 (* (shape, program) -> wall times, latest first *)
  and cpu = Hashtbl.create 64
  and costs = Hashtbl.create 64
  and rep_totals = Hashtbl.create 8 (* shape -> per-rep cost of the whole mix *)
  and shadow_peak = Hashtbl.create 8 (* (shape, program) -> bytes *) in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  (* one rep runs every shape on every trace, shapes interleaved *)
  let one_rep () =
    List.concat_map
      (fun (shape, args) ->
        List.map
          (fun t ->
            let o, cost = invoke (args t) in
            check shape t o;
            Option.iter (Hashtbl.replace shadow_peak (shape, t.program)) (Child.shadow_peak_bytes o);
            (shape, t, o, cost))
          traces)
      shapes
  in
  let rss_per_rep = ref [] in
  let keep rep =
    List.iter
      (fun (shape, t, (o : Child.outcome), cost) ->
        push walls (shape, t.program) o.wall_s;
        push cpu (shape, t.program) (Child.cpu_s o);
        push costs (shape, t.program) cost)
      rep;
    List.iter
      (fun (shape, _) ->
        push rep_totals shape (sum (List.filter_map (fun (s, _, _, cost) -> if s = shape then Some cost else None) rep)))
      shapes;
    rss_per_rep :=
      List.fold_left (fun m (s, _, (o : Child.outcome), _) -> if s = "replay_evps" then max m o.maxrss_kb else m) 0 rep
      :: !rss_per_rep
  in
  (* one untimed rep first, so every trace is in the page cache and
     every shape has run once *)
  ignore (one_rep ());
  calib := [];
  let reps = Quant.repeat ~seconds ~min:min_reps (fun () -> keep (one_rep ())) in
  let metric name unit stat = { Results.name; unit; stat } in
  (* a shape's mix cost is the sum of its traces' median costs *)
  let timed (shape, _) =
    let total = sum (List.map (fun t -> Quant.median (Hashtbl.find costs (shape, t.program))) traces) in
    let per_rep = Hashtbl.find rep_totals shape in
    if shape = "setup_s" then metric shape "s" (Quant.of_samples ~value:total per_rep)
    else
      let mev s = float events /. s /. 1e6 in
      metric shape "Mev/s" (Quant.of_samples ~value:(mev total) (List.map mev per_rep))
  in
  let rss_mb = List.map (fun kb -> mb (kb * 1024)) !rss_per_rep in
  let peak_sum shape =
    mb (List.fold_left (fun n t -> n + Option.value (Hashtbl.find_opt shadow_peak (shape, t.program)) ~default:0) 0 traces)
  in
  let metrics =
    List.map timed shapes
    @ [
        metric "peak_rss_mb" "MB" (Quant.of_samples ~value:(List.fold_left max 0. rss_mb) rss_mb);
        metric "shadow_peak_mb" "MB" (Quant.exact (peak_sum "replay_evps"));
        metric "shadow_peak_byte_mb" "MB" (Quant.exact (peak_sum "replay_byte_evps"));
        metric "trace_bytes_per_ev" "B/event" (Quant.exact (float trace_bytes /. float events));
      ]
  in
  let program_detail t =
    let shape_detail (shape, _) =
      let q1, m, q3 = Quant.quartiles (Hashtbl.find costs (shape, t.program)) in
      ( shape,
        Json.Obj
          [
            ("cost_s", Float m); ("cost_q1_s", Float q1); ("cost_q3_s", Float q3);
            ("cpu_s", Float (Quant.median (Hashtbl.find cpu (shape, t.program))));
            ("wall_s", Float (Quant.median (Hashtbl.find walls (shape, t.program))));
          ] )
    in
    Json.Obj
      [
        ("program", String t.program); ("scale", Int t.scale); ("events", Int t.events);
        ("accesses", Int t.accesses); ("expected_races", Int t.expected);
        ("shapes", Obj (List.map shape_detail shapes));
      ]
  in
  let q1, m, q3 = Quant.quartiles !calib in
  {
    Results.workload = mix.name;
    mode = "end_to_end";
    seed;
    attempted = tally.attempted;
    failed = tally.failed;
    metrics;
    detail =
      Json.Obj
        [
          ("cpu", Int cpu_id); ("calib_s", Float m); ("calib_q1_s", Float q1); ("calib_q3_s", Float q3);
          ("reps", Int reps); ("events", Int events); ("programs", List (List.map program_detail traces));
        ];
  }
