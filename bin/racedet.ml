(* racedet — command-line front end.

   Subcommands:
     run          analyse a workload with one detector
     compare      analyse a workload with several detectors side by side
     profile      phase/hot-path breakdown of one workload per detector
     record       record a workload's event stream to a trace file
     convert      rewrite a trace between the v1 and v2 formats
     replay       analyse a recorded trace (format auto-detected)
     inject       fault-injection harness (corrupt traces, stuck threads,
                  wire faults against a live serve session with --via socket)
     serve        crash-isolated streaming detection service (socket/spool)
     client       stream a trace through a serve instance / query status
     metrics-info validate and summarise a --metrics-out document
     timings      validate and summarise a --trace-out timeline
     list         list workloads and detectors

   Exit codes (doc/resilience.md, doc/serve.md):
     0  run completed, no races
     2  run completed, races found
     3  partial or degraded results (budget stop, deadlock, resynced trace)
     4  input error (corrupt trace, invalid argument values)
     5  internal failure contained as a structured error (crash-only
        session isolation) *)

open Cmdliner
open Dgrace_core
open Dgrace_workloads
open Dgrace_events
module Json = Dgrace_obs.Json
module Metrics = Dgrace_obs.Metrics
module Sampler = Dgrace_obs.Sampler
module Span = Dgrace_obs.Span
module Chrome_trace = Dgrace_obs.Chrome_trace
module State_matrix = Dgrace_obs.State_matrix
module Export = Dgrace_obs.Export
module Rerr = Dgrace_resilience.Error
module Budget = Dgrace_resilience.Budget

(* ------------------------------------------------------------------ *)
(* converters and shared options *)

let spec_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Spec.of_string s) in
  let print ppf s = Format.pp_print_string ppf (Spec.name s) in
  Arg.conv (parse, print)

(* Limits and periods are validated here, at argument parsing, so a
   bad value is a usage error (cmdliner's exit 124) with a pointed
   message — not an [Invalid_argument] from deep inside the engine. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg "must be a positive integer")
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0. -> Ok x
    | Some _ -> Error (`Msg "must be positive")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let workload_conv =
  let parse s =
    match Registry.find s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown workload %S (try: %s)" s
              (String.concat ", " Registry.names)))
  in
  let print ppf (w : Workload.t) = Format.pp_print_string ppf w.name in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(
    required
    & pos 0 (some workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark workload to run (see $(b,list)).")

let spec_arg =
  Arg.(
    value
    & opt spec_conv Spec.dynamic
    & info [ "d"; "detector" ] ~docv:"DETECTOR"
        ~doc:
          (Printf.sprintf "Detection algorithm: one of %s."
             (String.concat ", " Spec.all_names)))

let threads_arg =
  Arg.(value & opt (some int) None & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker thread count.")

let scale_arg =
  Arg.(value & opt (some int) None & info [ "s"; "scale" ] ~docv:"K" ~doc:"Workload size factor.")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")

let sched_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "sched-seed" ] ~docv:"SEED" ~doc:"Scheduler interleaving seed.")

let no_suppress_arg =
  Arg.(
    value & flag
    & info [ "no-suppressions" ]
        ~doc:"Disable the default runtime suppression rules (libc/ld/pthread).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every race report.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's structured metrics (summary, time-series, \
           state-transition matrix) as versioned JSON to $(docv).")

let sample_every_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "sample-every" ] ~docv:"N"
        ~doc:
          "Snapshot shadow-memory accounting every $(docv) events into the \
           exported time-series (active only with $(b,--metrics-out)).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ] ~doc:"Print a heartbeat line to stderr.")

let progress_every_arg =
  Arg.(
    value
    & opt pos_int 100_000
    & info [ "progress-every" ] ~docv:"N"
        ~doc:
          "Heartbeat period in events for $(b,--progress) (must be \
           positive; default 100000).")

(* Budget flags (doc/resilience.md): exceeding the shadow cap degrades
   the detector and keeps going; exceeding events/deadline stops the
   run with partial results and exit code 3. *)
let max_shadow_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "max-shadow-bytes" ] ~docv:"BYTES"
        ~doc:
          "Shadow-memory budget: over this the detector sheds state \
           (degraded results), and the run stops only if shedding is \
           exhausted.")

let max_events_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:
          "Analyse at most $(docv) events: a longer stream stops with \
           partial results (exit 3), a stream of exactly $(docv) events \
           completes.")

let deadline_arg =
  Arg.(
    value
    & opt (some pos_float) None
    & info [ "deadline-s" ] ~docv:"SECONDS"
        ~doc:"Stop (partial results) after $(docv) seconds of wall clock.")

let budget max_shadow_bytes max_events deadline_s =
  Budget.make ?max_shadow_bytes ?max_events ?deadline_s ()

let params w threads scale seed = Workload.with_params ?threads ?scale ?seed w

let suppression no_suppress =
  if no_suppress then Suppression.empty else Suppression.default_runtime

let policy sched_seed = Dgrace_sim.Scheduler.Chunked { seed = sched_seed; chunk = 64 }

let program sched_seed (w : Workload.t) p =
  Engine.Source.Program { policy = policy sched_seed; main = w.program p }

(* [Engine.analyze] with its errors raised for [or_fail] to report *)
let analyze config source =
  match Engine.analyze config source with
  | Ok s -> s
  | Error e -> raise (Rerr.E e)

(* Heartbeat for long runs: reads the live detector state so the line
   shows real progress, not just an event count.  Lines go through the
   shared {!Stderr_line} emitter so they stay whole even when other
   domains print. *)
let progress_for flag every (d : Dgrace_detectors.Detector.t) =
  if not flag then None
  else begin
    let t0 = Unix.gettimeofday () in
    Some
      ( every,
        fun events ->
          Stderr_line.line
            "[progress] %s: events=%d accesses=%d races=%d shadow=%dKB (%.1fs)"
            d.name events d.stats.Dgrace_detectors.Run_stats.accesses
            (Dgrace_detectors.Detector.race_count d)
            (Dgrace_shadow.Accounting.current_bytes d.account / 1024)
            (Unix.gettimeofday () -. t0) )
  end

(* Heartbeat for replays: detector state lives inside the replay, so
   the line reports the event count only.  It goes to stderr, like
   every other diagnostic, so it can never interleave with the summary
   on stdout under cram. *)
let replay_progress flag every =
  if not flag then None
  else
    Some (every, fun events -> Stderr_line.line "[progress] replayed %d events" events)

(* Structured-failure boundary: anything the stack declares — corrupt
   trace, deadlocked workload — is printed to stderr and mapped to the
   documented exit code.  No raw exception ever reaches the user. *)
let or_fail f =
  try f () with
  | Rerr.E e ->
    Stderr_line.linef "racedet: %a" Rerr.pp e;
    exit (Rerr.exit_code e)
  | Dgrace_sim.Sim.Deadlock { Dgrace_sim.Sim.blocked; held } ->
    let e = Rerr.Deadlock { blocked; held } in
    Stderr_line.linef "racedet: %a" Rerr.pp e;
    exit (Rerr.exit_code e)

let workload_json (w : Workload.t) (p : Workload.params) =
  Json.Obj
    [
      ("name", Json.String w.name);
      ("threads", Json.Int p.threads);
      ("scale", Json.Int p.scale);
      ("seed", Json.Int p.seed);
    ]

let write_metrics path json =
  Json.to_file path json;
  Stderr_line.line "metrics written to %s" path

(* --trace-out plumbing: a tracer exists only when asked for, so the
   traced-off paths stay the exact pre-tracing code. *)
let tracer_for trace_out = Option.map (fun _ -> Span.create ()) trace_out

let write_trace tracer trace_out =
  match (tracer, trace_out) with
  | Some t, Some path ->
    Json.to_file path (Chrome_trace.to_json t);
    Stderr_line.line "trace written to %s" path
  | (Some _ | None), _ -> ()

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's span timeline as Chrome trace_event JSON to \
           $(docv): the main lane (with a $(b,replay.decode) span per \
           trace read), sampled per-phase detector timers, and counter \
           tracks.  Load it \
           in Perfetto (ui.perfetto.dev) or chrome://tracing, or summarise \
           it with $(b,racedet timings).")

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let action w spec threads scale seed sched_seed no_suppress verbose
      metrics_out sample_every trace_out progress progress_every max_shadow
      max_events deadline =
    or_fail @@ fun () ->
    let p = params w threads scale seed in
    let tracer = tracer_for trace_out in
    let d =
      Spec.to_detector ~suppression:(suppression no_suppress)
        ?tracer:(Option.map Span.main tracer)
        spec
    in
    let s =
      analyze
        {
          (Engine.Config.of_detector d) with
          Engine.Config.budget = budget max_shadow max_events deadline;
          sample_every = Option.map (fun _ -> sample_every) metrics_out;
          progress = progress_for progress progress_every d;
          tracer;
        }
        (program sched_seed w p)
    in
    Format.printf "workload: %s (threads=%d scale=%d seed=%d)@." w.name p.threads
      p.scale p.seed;
    Format.printf "%a@." Engine.pp_summary s;
    if verbose then
      List.iter (fun r -> Format.printf "%s@." (Report.to_string r)) s.races;
    Option.iter
      (fun path ->
        write_metrics path
          (Engine.summary_to_json ~workload:(workload_json w p) s))
      metrics_out;
    write_trace tracer trace_out;
    let code = Engine.exit_code_of_summary s in
    if code <> 0 then exit code
  in
  let term =
    Term.(
      const action $ workload_arg $ spec_arg $ threads_arg $ scale_arg
      $ seed_arg $ sched_seed_arg $ no_suppress_arg $ verbose_arg
      $ metrics_out_arg $ sample_every_arg $ trace_out_arg $ progress_arg
      $ progress_every_arg $ max_shadow_arg $ max_events_arg $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one detector."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Exit code 0 when clean, 2 when races are found, 3 when a \
              resource budget made the results partial or degraded, 4 on \
              input errors." ])
    term

(* ------------------------------------------------------------------ *)
(* compare *)

let compare_cmd =
  let action w threads scale seed sched_seed no_suppress metrics_out
      sample_every trace_out =
    or_fail @@ fun () ->
    let p = params w threads scale seed in
    let t0 = Unix.gettimeofday () in
    let tracer = tracer_for trace_out in
    Format.printf "workload: %s (threads=%d scale=%d seed=%d)@.@." w.name
      p.threads p.scale p.seed;
    Format.printf "%-28s %8s %10s %12s %10s %10s@." "detector" "races"
      "time(ms)" "peak-mem" "peak-VCs" "same-ep";
    let base = ref 0. in
    let slowdowns = ref [] in
    let summaries = ref [] in
    List.iter
      (fun spec ->
        let s =
          analyze
            {
              (Engine.Config.make spec) with
              Engine.Config.suppression = suppression no_suppress;
              sample_every = Option.map (fun _ -> sample_every) metrics_out;
              tracer;
            }
            (program sched_seed w p)
        in
        summaries := s :: !summaries;
        if spec = Spec.No_detection then base := s.elapsed
        else if !base > 0. then
          slowdowns := (s.elapsed /. !base) :: !slowdowns;
        Format.printf "%-28s %8d %10.1f %11dK %10d %9.0f%%@." s.detector
          s.race_count (1000. *. s.elapsed)
          (s.mem.peak_bytes / 1024)
          s.mem.peak_vcs
          (100. *. Dgrace_detectors.Run_stats.same_epoch_ratio s.stats))
      [
        Spec.No_detection; Spec.byte; Spec.word; Spec.dynamic;
        Spec.Djit { granularity = 4 }; Spec.Drd; Spec.Inspector; Spec.Eraser;
        Spec.Multirace; Spec.Racetrack { region = 64 }; Spec.Literace;
        Spec.Sampling { rate = 0.1; granule = true };
      ];
    (* the paper's Figure 7 summary statistic: geometric-mean slowdown
       of each detector relative to the uninstrumented (null) run *)
    if !slowdowns <> [] then
      Format.printf "@.%-28s %8s %9.2fx (slowdown vs none)@." "geomean" ""
        (Dgrace_util.Stat.geomean !slowdowns);
    Option.iter
      (fun path ->
        write_metrics path
          (Engine.summaries_to_json ~workload:(workload_json w p)
             ~elapsed_s:(Unix.gettimeofday () -. t0)
             (List.rev !summaries)))
      metrics_out;
    write_trace tracer trace_out
  in
  let term =
    Term.(
      const action $ workload_arg $ threads_arg $ scale_arg $ seed_arg
      $ sched_seed_arg $ no_suppress_arg $ metrics_out_arg $ sample_every_arg
      $ trace_out_arg)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run one workload under every detector.") term

(* ------------------------------------------------------------------ *)
(* profile *)

let pct part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let print_profile (s : Engine.summary) =
  let stats = s.stats in
  let total = stats.accesses in
  let fast = stats.same_epoch in
  let analysed =
    (* instrumented detectors count this directly; the invariant
       fast + analysed = total holds by construction *)
    Option.value
      (Metrics.find_counter s.metrics "accesses.analysed")
      ~default:(total - fast)
  in
  Format.printf "@.detector: %s@." s.detector;
  Format.printf "  accesses                 : %d@." total;
  Format.printf "  same-epoch fast path     : %d (%.1f%%)@." fast
    (pct fast total);
  Format.printf "  slow path (analysed)     : %d (%.1f%%)@." analysed
    (pct analysed total);
  Option.iter
    (Format.printf "    epoch comparisons      : %d@.")
    (Metrics.find_counter s.metrics "phase.epoch_compare");
  Option.iter
    (Format.printf "    full VC operations     : %d@.")
    (Metrics.find_counter s.metrics "phase.vc_op");
  Format.printf "  sync ops                 : %d@." stats.sync_ops;
  (match
     ( Metrics.find_counter s.metrics "sharing.decisions",
       Metrics.find_counter s.metrics "sharing.decisions.shared",
       Metrics.find_counter s.metrics "sharing.decisions.private" )
   with
   | Some d, Some sh, Some pr when d > 0 ->
     Format.printf "  sharing decisions        : %d (shared %d / private %d)@."
       d sh pr
   | _ -> ());
  Option.iter
    (fun m ->
      Format.printf "  state transitions        : %d@." (State_matrix.total m))
    s.transitions;
  Format.printf "  races                    : %d (%d suppressed)@." s.race_count
    s.suppressed;
  Format.printf "  elapsed                  : %.3fs@." s.elapsed

let profile_cmd =
  let action w specs threads scale seed sched_seed no_suppress metrics_out
      sample_every progress progress_every =
    or_fail @@ fun () ->
    let specs =
      if specs = [] then [ Spec.byte; Spec.word; Spec.dynamic ] else specs
    in
    let p = params w threads scale seed in
    Format.printf "workload: %s (threads=%d scale=%d seed=%d)@." w.name
      p.threads p.scale p.seed;
    let summaries =
      List.map
        (fun spec ->
          let d =
            Spec.to_detector ~suppression:(suppression no_suppress) spec
          in
          let s =
            analyze
              {
                (Engine.Config.of_detector d) with
                Engine.Config.sample_every =
                  Option.map (fun _ -> sample_every) metrics_out;
                progress = progress_for progress progress_every d;
              }
              (program sched_seed w p)
          in
          print_profile s;
          s)
        specs
    in
    Option.iter
      (fun path ->
        write_metrics path
          (Engine.summaries_to_json ~workload:(workload_json w p) summaries))
      metrics_out
  in
  let specs_arg =
    Arg.(
      value
      & opt_all spec_conv []
      & info [ "d"; "detector" ] ~docv:"DETECTOR"
          ~doc:
            "Detector(s) to profile (repeatable); default: byte, word, \
             dynamic.")
  in
  let term =
    Term.(
      const action $ workload_arg $ specs_arg $ threads_arg $ scale_arg
      $ seed_arg $ sched_seed_arg $ no_suppress_arg $ metrics_out_arg
      $ sample_every_arg $ progress_arg $ progress_every_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload and print the per-detector phase breakdown: \
          same-epoch fast path vs. epoch comparison vs. full vector-clock \
          work, plus sharing-state telemetry."
       ~man:
         [ `S Manpage.s_description;
           `P
             "The fast-path and slow-path counts sum to the total number of \
              analysed memory accesses; the sharing lines expose the \
              dynamic-granularity state machine (paper Fig. 2) directly." ])
    term

(* ------------------------------------------------------------------ *)
(* metrics-info *)

let metrics_info_cmd =
  let action path =
    match Json.parse_file path with
    | Error msg ->
      Format.eprintf "metrics-info: %s: invalid JSON: %s@." path msg;
      exit Rerr.exit_input_error
    | Ok doc -> (
      match Export.validate doc with
      | Error msg ->
        Format.eprintf "metrics-info: %s: not a metrics document: %s@." path
          msg;
        exit Rerr.exit_input_error
      | Ok (version, kind) ->
        Format.printf "%s: %d@." Export.version_key version;
        Format.printf "kind: %s@." kind;
        let runs =
          match Json.member "runs" doc with
          | Some (Json.List rs) -> rs
          | _ -> [ doc ]
        in
        Format.printf "runs: %d@." (List.length runs);
        List.iter
          (fun run ->
            let detector =
              match Json.member "detector" run with
              | Some (Json.String d) -> d
              | _ -> "?"
            in
            let samples =
              match
                Option.bind (Json.member "timeseries" run) (Json.member "samples")
              with
              | Some (Json.List ss) -> List.length ss
              | _ -> 0
            in
            let transitions =
              match
                Option.bind (Json.member "transitions" run) (Json.member "total")
              with
              | Some (Json.Int n) -> n
              | _ -> 0
            in
            Format.printf "  %s: samples=%d transitions=%d@." detector samples
              transitions)
          runs)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A --metrics-out document.")
  in
  Cmd.v
    (Cmd.info "metrics-info"
       ~doc:"Validate and summarise a --metrics-out JSON document.")
    Term.(const action $ path_arg)

(* ------------------------------------------------------------------ *)
(* record / replay *)

let trace_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Trace file path.")

let trace_v2_arg =
  Arg.(
    value & flag
    & info [ "trace-v2" ]
        ~doc:
          "Write the v2 trace format: run-length/delta-compressed blocks \
           that replay decodes straight into struct-of-arrays batches \
           (doc/trace.md).  Readers auto-detect the version.")

let record_cmd =
  let action w threads scale seed sched_seed v2 path =
    or_fail @@ fun () ->
    let p = params w threads scale seed in
    let to_file =
      if v2 then Dgrace_trace.Trace_format_v2.to_file
      else Dgrace_trace.Trace_writer.to_file
    in
    let sim, n =
      to_file path (fun sink ->
          Workload.run ~policy:(policy sched_seed) ~params:p ~sink w)
    in
    Format.printf "recorded %d events (%d accesses, %d threads) to %s%s@." n
      sim.accesses sim.threads path
      (if v2 then " (v2)" else "")
  in
  let term =
    Term.(
      const action $ workload_arg $ threads_arg $ scale_arg $ seed_arg
      $ sched_seed_arg $ trace_v2_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a workload's event stream to a trace file.")
    term

(* convert: rewrite a trace in the other (or a chosen) format.  The
   source version is probed from the header; events stream straight
   from one decoder into the other encoder, so traces larger than
   memory convert fine. *)
let convert_cmd =
  let action src v2 dst progress progress_every =
    or_fail @@ fun () ->
    let src_version = Dgrace_trace.Trace_reader.probe_version src in
    (* default output flips the input format; --trace-v2 forces v2 *)
    let to_v2 = v2 || src_version < 2 in
    (* optional heartbeat: conversion is streaming (one decoded block
       resident at a time), so on multi-gigabyte traces the heartbeat
       is the only sign of life *)
    let count = ref 0 in
    let tick =
      if progress then (fun () ->
        incr count;
        if !count mod progress_every = 0 then
          Stderr_line.line "racedet: convert: %d events" !count)
      else fun () -> incr count
    in
    let feed sink =
      let sink ev =
        sink ev;
        tick ()
      in
      if src_version >= 2 then
        Dgrace_trace.Trace_format_v2.fold_file src (fun () ev -> sink ev) ()
      else Dgrace_trace.Trace_reader.fold_file src (fun () ev -> sink ev) ()
    in
    let (), n =
      if to_v2 then Dgrace_trace.Trace_format_v2.to_file dst feed
      else Dgrace_trace.Trace_writer.to_file dst feed
    in
    Format.printf "converted %s (v%d) -> %s (v%d): %d events@." src src_version
      dst
      (if to_v2 then 2 else 1)
      n
  in
  let src_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SRC" ~doc:"Trace to convert (version auto-detected).")
  in
  let dst_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DST" ~doc:"Output trace path.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:"Convert a trace between the v1 and v2 formats."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Without $(b,--trace-v2) the output uses the format the input \
              is not in (v1 input converts to v2 and vice versa); with it \
              the output is always v2.  Replay results are bit-identical \
              across formats.  Conversion streams block by block — memory \
              stays bounded no matter the trace size — and $(b,--progress) \
              prints a heartbeat every $(b,--progress-every) events." ])
    Term.(
      const action $ src_arg $ trace_v2_arg $ dst_arg $ progress_arg
      $ progress_every_arg)

let replay_cmd =
  let action path spec no_suppress verbose resync metrics_out
      sample_every trace_out progress progress_every max_shadow max_events
      deadline =
    or_fail @@ fun () ->
    let version = Dgrace_trace.Trace_reader.probe_version path in
    if resync && version >= 2 then
      raise
        (Rerr.E
           (Rerr.Invalid_input
              {
                what = "replay --resync";
                reason =
                  "v2 traces cannot be resynced: a corrupt block's extent \
                   is unknown.  Replay without --resync; the corruption \
                   error gives the damaged byte offset";
              }));
    let tracer = tracer_for trace_out in
    let lane = Option.map Span.main tracer in
    let config =
      {
        (Engine.Config.make spec) with
        Engine.Config.suppression = suppression no_suppress;
        budget = budget max_shadow max_events deadline;
        sample_every = Option.map (fun _ -> sample_every) metrics_out;
        progress = replay_progress progress progress_every;
        tracer;
      }
    in
    let source, recovered_gaps =
      if version >= 2 then (Engine.Source.V2_file path, 0)
      else begin
        (* decode vs dispatch: the trace shows file reading as its own
           span, before the engine's replay span starts *)
        (match lane with Some b -> Span.begin_span b "replay.decode" | None -> ());
        let events, recovered_gaps =
          if resync then begin
            let events, r = Dgrace_trace.Trace_reader.read_file_resync path in
            if r.Dgrace_trace.Trace_reader.gaps > 0 then
              Stderr_line.line
                "racedet: resync: dropped %d byte(s) in %d gap(s), %d event(s) \
                 salvaged"
                r.dropped_bytes r.gaps r.events;
            (events, r.gaps)
          end
          else (Dgrace_trace.Trace_reader.read_file path, 0)
        in
        (match lane with Some b -> Span.end_span b "replay.decode" | None -> ());
        (Engine.Source.Events (List.to_seq events), recovered_gaps)
      end
    in
    let s = analyze config source in
    Format.printf "%a@." Engine.pp_summary s;
    if verbose then
      List.iter (fun r -> Format.printf "%s@." (Report.to_string r)) s.races;
    Option.iter
      (fun out -> write_metrics out (Engine.summary_to_json s))
      metrics_out;
    write_trace tracer trace_out;
    let code = Engine.exit_code_of_summary s in
    (* a resynced trace is partial evidence even when the run itself
       completed: races are a lower bound *)
    let code = if recovered_gaps > 0 then max code Rerr.exit_partial else code in
    if code <> 0 then exit code
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let resync_arg =
    Arg.(
      value & flag
      & info [ "resync" ]
          ~doc:
            "Skip corrupt trace regions instead of failing: scan forward to \
             the next decodable record, report what was dropped on stderr, \
             and exit 3 (partial) if anything was.  v1 traces only.")
  in
  let term =
    Term.(
      const action $ path_arg $ spec_arg $ no_suppress_arg $ verbose_arg
      $ resync_arg $ metrics_out_arg $ sample_every_arg
      $ trace_out_arg $ progress_arg $ progress_every_arg $ max_shadow_arg
      $ max_events_arg $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Analyse a recorded trace."
       ~man:
         [ `S Manpage.s_description;
           `P
             "A corrupt trace fails with a structured error (exit 4) unless \
              $(b,--resync) is given, in which case decodable events around \
              the damage are still analysed (exit 3).  Only v1 traces can \
              be resynced: a v2 trace's error names the damaged byte \
              offset instead.";
           `P
             "A v2 trace replays block by block on one domain: each block \
              is decoded into a reused struct-of-arrays batch and \
              analysed before the next is read, so memory stays bounded \
              whatever the trace size.  Races, report offsets, corruption \
              offsets and budget stop reasons are bit-identical to a \
              per-event replay of the same events.  With \
              $(b,--trace-out) each block decode is a $(b,replay.decode) \
              span on the main lane ($(b,racedet timings) then shows the \
              decode-vs-detect split)." ])
    term

(* ------------------------------------------------------------------ *)
(* inject: the fault-injection harness *)

let inject_cmd =
  let action w spec threads scale seeds fault_names via =
    let p = params w threads scale None in
    if via = "socket" then begin
      (* satellite harness: drive the same recover-or-declare contract
         through the serve wire path (Dgrace_serve.Chaos) — a faulted
         session must end poisoned while a concurrent healthy session
         matches the one-shot oracle and nothing leaks *)
      let faults =
        match fault_names with
        | [] ->
          [ Dgrace_serve.Client.Garbage; Dgrace_serve.Client.Truncate;
            Dgrace_serve.Client.Disconnect ]
        | names ->
          List.map
            (fun n ->
              match Dgrace_serve.Client.fault_of_string n with
              | Ok f -> f
              | Error msg ->
                Format.eprintf "racedet: %s@." msg;
                exit Rerr.exit_input_error)
            names
      in
      let fault_name = function
        | Dgrace_serve.Client.Garbage -> "garbage"
        | Dgrace_serve.Client.Truncate -> "truncate"
        | Dgrace_serve.Client.Disconnect -> "disconnect"
      in
      Format.printf "fault injection (socket): workload=%s detector=%s seeds=%s@."
        w.name (Spec.name spec)
        (String.concat "," (List.map string_of_int seeds));
      let failures = ref 0 in
      List.iter
        (fun injection_seed ->
          let evs = ref [] in
          ignore
            (Workload.run ~policy:(policy injection_seed) ~params:p
               ~sink:(fun e -> evs := e :: !evs)
               w);
          let events = List.rev !evs in
          List.iter
            (fun fault ->
              let outcome = Dgrace_serve.Chaos.run ~spec ~events fault in
              if not (Dgrace_serve.Chaos.acceptable outcome) then incr failures;
              Format.printf "  seed=%-3d %-11s %s@." injection_seed
                (fault_name fault)
                (Dgrace_serve.Chaos.describe outcome))
            faults)
        seeds;
      if !failures > 0 then begin
        Format.eprintf "racedet: inject: %d contract violation(s)@." !failures;
        exit 1
      end
      else
        Format.printf "all %d injection(s) isolated@."
          (List.length seeds * List.length faults);
      exit 0
    end;
    let faults =
      match fault_names with
      | [] -> Fault_harness.all
      | names ->
        List.map
          (fun n ->
            match Fault_harness.of_name n with
            | Some f -> f
            | None ->
              Format.eprintf "racedet: unknown fault %S (try: %s)@." n
                (String.concat ", " Fault_harness.names);
              exit Rerr.exit_input_error)
          names
    in
    Format.printf "fault injection: workload=%s detector=%s seeds=%s@." w.name
      (Spec.name spec)
      (String.concat "," (List.map string_of_int seeds));
    let failures = ref 0 in
    List.iter
      (fun injection_seed ->
        List.iter
          (fun fault ->
            let outcome =
              Fault_harness.run ~spec ~seed:injection_seed
                ~program:(w.Workload.program p) fault
            in
            if not (Fault_harness.acceptable outcome) then incr failures;
            Format.printf "  seed=%-3d %-11s %s@." injection_seed
              (Fault_harness.name fault)
              (Fault_harness.describe outcome))
          faults)
      seeds;
    if !failures > 0 then begin
      Format.eprintf "racedet: inject: %d contract violation(s)@." !failures;
      exit 1
    end
    else
      Format.printf "all %d injection(s) recovered or declared@."
        (List.length seeds * List.length faults)
  in
  let seeds_arg =
    Arg.(
      value
      & opt_all pos_int [ 1 ]
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Injection seed (repeatable; default 1).")
  in
  let faults_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            (Printf.sprintf "Fault to inject (repeatable): one of %s. \
                             Default: all."
               (String.concat ", " Fault_harness.names)))
  in
  let via_arg =
    Arg.(
      value
      & opt (enum [ ("direct", "direct"); ("socket", "socket") ]) "direct"
      & info [ "via" ] ~docv:"PATH"
          ~doc:
            "Injection path: $(b,direct) corrupts the pipeline in process; \
             $(b,socket) drives wire faults ($(b,garbage), $(b,truncate), \
             $(b,disconnect)) into a live serve session while a healthy \
             session streams next to it.")
  in
  let term =
    Term.(
      const action $ workload_arg $ spec_arg $ threads_arg $ scale_arg
      $ seeds_arg $ faults_arg $ via_arg)
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Inject deterministic faults (corrupt trace bytes, stalled \
          threads, lost unlocks) and verify the recover-or-declare \
          contract."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Every injected fault must end in recovery (resync) or a \
              structured declared error — never an uncaught exception or a \
              hang.  Exit 0 when the contract holds for every seed/fault \
              pair, 1 otherwise.  The same seed always reproduces the same \
              corruption." ])
    term

(* ------------------------------------------------------------------ *)
(* explore: schedule sensitivity *)

let explore_cmd =
  let action w spec threads scale seed seeds no_suppress =
    or_fail @@ fun () ->
    let p = params w threads scale seed in
    Format.printf "workload: %s, detector: %s, %d scheduler seeds@.@." w.name
      (Spec.name spec) seeds;
    let union = Hashtbl.create 64 and inter = ref None in
    let counts =
      List.init seeds (fun i ->
          let s =
            analyze
              {
                (Engine.Config.make spec) with
                Engine.Config.suppression = suppression no_suppress;
              }
              (program (i + 1) w p)
          in
          let addrs =
            List.map (fun (r : Report.t) -> r.addr) s.races
            |> List.sort_uniq compare
          in
          List.iter (fun a -> Hashtbl.replace union a ()) addrs;
          (inter :=
             match !inter with
             | None -> Some addrs
             | Some prev -> Some (List.filter (fun a -> List.mem a addrs) prev));
          s.race_count)
    in
    List.iteri (fun i c -> Format.printf "seed %2d: %d race(s)@." (i + 1) c) counts;
    let inter = Option.value !inter ~default:[] in
    Format.printf
      "@.%d distinct racy location(s) across all seeds; %d found under every seed@."
      (Hashtbl.length union) (List.length inter);
    if Hashtbl.length union > List.length inter then
      Format.printf
        "schedule-sensitive: some races only surface under some interleavings@."
  in
  let seeds_arg =
    Arg.(value & opt int 5 & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of scheduler seeds (default 5).")
  in
  let term =
    Term.(
      const action $ workload_arg $ spec_arg $ threads_arg $ scale_arg
      $ seed_arg $ seeds_arg $ no_suppress_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Run a workload under several scheduler seeds and report race stability.")
    term

(* ------------------------------------------------------------------ *)
(* trace-info / trace-dump *)

let trace_path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")

(* both formats fold the same way; the header byte picks the decoder *)
let fold_trace path f init =
  if Dgrace_trace.Trace_reader.probe_version path >= 2 then
    Dgrace_trace.Trace_format_v2.fold_file path f init
  else Dgrace_trace.Trace_reader.fold_file path f init

let trace_info_cmd =
  let action path =
    or_fail @@ fun () ->
    let accesses = ref 0 and reads = ref 0 and writes = ref 0 in
    let syncs = ref 0 and allocs = ref 0 and frees = ref 0 in
    let forks = ref 0 and bytes_alloc = ref 0 in
    let tids = Hashtbl.create 16 and locks = Hashtbl.create 16 in
    let lo_addr = ref max_int and hi_addr = ref 0 in
    let total =
      fold_trace path
        (fun n ev ->
          (match ev with
           | Event.Access { tid; kind; addr; size; _ } ->
             incr accesses;
             (if kind = Event.Read then incr reads else incr writes);
             Hashtbl.replace tids tid ();
             lo_addr := min !lo_addr addr;
             hi_addr := max !hi_addr (addr + size)
           | Event.Acquire { tid; lock; _ } | Event.Release { tid; lock; _ } ->
             incr syncs;
             Hashtbl.replace tids tid ();
             Hashtbl.replace locks lock ()
           | Event.Fork { parent; child } ->
             incr forks;
             Hashtbl.replace tids parent ();
             Hashtbl.replace tids child ()
           | Event.Join _ -> incr syncs
           | Event.Alloc { size; _ } ->
             incr allocs;
             bytes_alloc := !bytes_alloc + size
           | Event.Free _ -> incr frees
           | Event.Thread_exit _ -> ());
          n + 1)
        0
    in
    Printf.printf "events:    %d
" total;
    Printf.printf "accesses:  %d (%d reads, %d writes)
" !accesses !reads !writes;
    Printf.printf "sync ops:  %d on %d sync objects
" !syncs (Hashtbl.length locks);
    Printf.printf "threads:   %d (%d forks)
" (Hashtbl.length tids) !forks;
    Printf.printf "heap:      %d allocs / %d frees, %d bytes total
" !allocs !frees !bytes_alloc;
    if !accesses > 0 then
      Printf.printf "addresses: 0x%x - 0x%x
" !lo_addr !hi_addr
  in
  Cmd.v
    (Cmd.info "trace-info" ~doc:"Summarise a recorded trace.")
    Term.(const action $ trace_path_arg)

let trace_dump_cmd =
  let action path limit =
    or_fail @@ fun () ->
    let printed =
      fold_trace path
        (fun n ev ->
          if n < limit then print_endline (Event.to_string ev);
          n + 1)
        0
    in
    if printed > limit then Printf.printf "... (%d more events)
" (printed - limit)
  in
  let limit_arg =
    Arg.(value & opt int 100 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Events to print (default 100).")
  in
  Cmd.v
    (Cmd.info "trace-dump" ~doc:"Print the events of a recorded trace.")
    Term.(const action $ trace_path_arg $ limit_arg)

(* ------------------------------------------------------------------ *)
(* timings: validate a --trace-out document and print per-phase totals *)

let timings_cmd =
  let action path =
    match Json.parse_file path with
    | Error msg ->
      Stderr_line.line "timings: %s: invalid JSON: %s" path msg;
      exit Rerr.exit_input_error
    | Ok doc -> (
      match Chrome_trace.phases doc with
      | Error msg ->
        Stderr_line.line "timings: %s: invalid trace: %s" path msg;
        exit Rerr.exit_input_error
      | Ok r ->
        Format.printf "trace: %d event(s), %d lane(s), %d us wall@."
          r.Chrome_trace.events r.Chrome_trace.lanes r.Chrome_trace.wall_us;
        Format.printf "%-14s %-24s %10s %12s@." "lane" "phase" "count"
          "total(us)";
        List.iter
          (fun (p : Chrome_trace.phase) ->
            Format.printf "%-14s %-24s %10d %11d%s@." p.Chrome_trace.phase_lane
              p.Chrome_trace.phase_name p.Chrome_trace.count
              p.Chrome_trace.total_us
              (if p.Chrome_trace.estimated then "~" else ""))
          r.Chrome_trace.phases)
  in
  let path_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A --trace-out document.")
  in
  Cmd.v
    (Cmd.info "timings"
       ~doc:
         "Validate a --trace-out Chrome trace and print the per-lane, \
          per-phase time table."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Checks the trace is loadable (balanced begin/end pairs, \
              monotone per-lane timestamps, well-formed counters), then \
              aggregates spans and sampled timers into one row per (lane, \
              phase).  A trailing $(b,~) marks totals estimated from \
              sampled timers rather than measured span pairs.  Exit 4 on \
              an invalid document." ])
    Term.(const action $ path_arg)

(* ------------------------------------------------------------------ *)
(* serve: the crash-isolated streaming detection service *)

module Serve = Dgrace_serve.Server
module Serve_client = Dgrace_serve.Client
module Serve_chaos = Dgrace_serve.Chaos

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to serve on.")

let serve_cmd =
  let action socket spool domains max_sessions inbox session_deadline
      drain_deadline spec max_shadow max_events deadline =
    or_fail @@ fun () ->
    let cfg =
      {
        Serve.default_config with
        domains;
        max_sessions;
        inbox_frames = inbox;
        session_deadline_s = session_deadline;
        drain_deadline_s = drain_deadline;
        log = Stderr_line.emit;
        spool_spec = spec;
        spool_budget = budget max_shadow max_events deadline;
      }
    in
    match (socket, spool) with
    | Some path, None ->
      Stderr_line.set_tag (Some "serve");
      let t = Serve.start ~cfg ~socket:path () in
      Stderr_line.line "listening on %s (domains=%d max-sessions=%d)" path
        domains max_sessions;
      let stop = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigterm handler;
      Sys.set_signal Sys.sigint handler;
      let rec park () =
        if not (Atomic.get stop) then begin
          Thread.delay 0.1;
          park ()
        end
      in
      park ();
      Stderr_line.line "draining (deadline %.1fs)" drain_deadline;
      Serve.drain t;
      Stderr_line.line "drained"
    | None, Some dir ->
      let results = Serve.process_spool ~cfg ~dir () in
      let code =
        List.fold_left
          (fun acc (f, r) ->
            match r with
            | Ok (s : Engine.summary) ->
              Format.printf "%s: races=%d%s%s@." f s.race_count
                (if s.partial <> None then " partial" else "")
                (if s.degraded then " degraded" else "");
              max acc (Engine.exit_code_of_summary s)
            | Error e ->
              Format.printf "%s: error: %s@." f (Rerr.to_string e);
              max acc (Rerr.exit_code e))
          0 results
      in
      if code <> 0 then exit code
    | _ ->
      Stderr_line.line "serve: exactly one of --socket or --spool is required";
      exit Rerr.exit_input_error
  in
  let spool_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "One-shot batch mode: analyse every *.trc file in $(docv) as \
             its own session and print one line per file.")
  in
  let domains_arg =
    Arg.(
      value & opt pos_int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let max_sessions_arg =
    Arg.(
      value & opt pos_int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:
            "Admission cap: concurrent sessions past $(docv) are answered \
             with Overloaded and a retry hint.")
  in
  let inbox_arg =
    Arg.(
      value & opt pos_int 64
      & info [ "inbox" ] ~docv:"FRAMES"
          ~doc:
            "Per-session inbox bound; BATCH frames past it are shed with \
             Overloaded (the client retries the same frame).")
  in
  let session_deadline_arg =
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "session-deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog: a session still streaming after $(docv) seconds is \
             sealed as a partial summary.")
  in
  let drain_deadline_arg =
    Arg.(
      value & opt pos_float 5.0
      & info [ "drain-deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Grace given to in-flight sessions on SIGTERM before they are \
             sealed as partial summaries (default 5).")
  in
  let term =
    Term.(
      const action $ socket_arg $ spool_arg $ domains_arg $ max_sessions_arg
      $ inbox_arg $ session_deadline_arg $ drain_deadline_arg $ spec_arg
      $ max_shadow_arg $ max_events_arg $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve streaming race detection over a Unix socket (or a spool \
          directory) with per-session crash isolation."
       ~man:
         [ `S Manpage.s_description;
           `P
             "Sessions are crash-only: a corrupt frame, an exhausted budget \
              or an internal failure poisons only that session, which then \
              answers every request with its structured error.  Worker \
              domains that crash are restarted with capped exponential \
              backoff.  SIGTERM drains: in-flight sessions get \
              $(b,--drain-deadline-s) to finish, stragglers are sealed as \
              partial summaries (exit-code-3 semantics), and the server \
              exits 0.  See doc/serve.md for the wire protocol.";
           `P
             "The detector/budget flags apply to $(b,--spool) sessions; \
              socket clients pick their own per session." ])
    term

(* client: drive a serve instance *)

let client_fault_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Serve_client.fault_of_string s) in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with
       | Serve_client.Garbage -> "garbage"
       | Serve_client.Truncate -> "truncate"
       | Serve_client.Disconnect -> "disconnect")
  in
  Arg.conv (parse, print)

let req_socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Server socket to connect to.")

let client_replay_cmd =
  let action path socket spec chunk_events fault fault_after verbose
      max_shadow max_events deadline =
    or_fail @@ fun () ->
    (* a v1 trace is read into events like a v2 one; the client packs
       both into BATCH frames *)
    let events =
      if Dgrace_trace.Trace_reader.probe_version path >= 2 then
        Dgrace_trace.Trace_format_v2.read_file path
      else Dgrace_trace.Trace_reader.read_file path
    in
    match
      Serve_client.replay ~spec:(Spec.name spec) ?max_events
        ?deadline_s:deadline ?max_shadow_bytes:max_shadow ~chunk_events ?fault
        ~fault_after_frames:fault_after ~socket events
    with
    | Ok { Serve_client.races; summary } ->
      if verbose then List.iter print_endline races;
      let geti k =
        match Json.member k summary with Some (Json.Int n) -> n | _ -> 0
      in
      let getb k =
        match Json.member k summary with Some (Json.Bool b) -> b | _ -> false
      in
      let partial = getb "partial" and degraded = getb "degraded" in
      Format.printf "races: %d (%d suppressed)%s%s@." (geti "races")
        (geti "suppressed")
        (if partial then " partial" else "")
        (if degraded then " degraded" else "");
      let code =
        if partial || degraded then Rerr.exit_partial
        else if geti "races" > 0 then Rerr.exit_races
        else Rerr.exit_ok
      in
      if code <> 0 then exit code
    | Error (Serve_client.Server { code; error }) ->
      Stderr_line.line "client: server error: %s"
        (Json.to_string ~minify:true error);
      exit code
    | Error f ->
      Stderr_line.line "client: %s" (Serve_client.failure_to_string f);
      exit Rerr.exit_input_error
  in
  let trace_pos_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file to stream.")
  in
  let chunk_events_arg =
    Arg.(
      value & opt pos_int 512
      & info [ "chunk-events" ] ~docv:"N"
          ~doc:
            "Events per BATCH frame (default 512, at most 4096); a frame is \
             cut earlier where a v2 trace block would be.")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some client_fault_conv) None
      & info [ "inject-fault" ] ~docv:"FAULT"
          ~doc:
            "Break the wire on purpose: one of $(b,garbage), $(b,truncate), \
             $(b,disconnect).  The session must end declared, not crash the \
             server.")
  in
  let fault_after_arg =
    Arg.(
      value & opt int 2
      & info [ "fault-after" ] ~docv:"FRAMES"
          ~doc:"Inject after $(docv) BATCH frames (default 2).")
  in
  let term =
    Term.(
      const action $ trace_pos_arg $ req_socket_arg $ spec_arg
      $ chunk_events_arg $ fault_arg $ fault_after_arg
      $ verbose_arg $ max_shadow_arg $ max_events_arg $ deadline_arg)
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Stream a recorded trace through a serve instance.")
    term

let client_status_cmd =
  let action socket =
    match Serve_client.connect ~socket with
    | Error f ->
      Stderr_line.line "client: %s" (Serve_client.failure_to_string f);
      exit Rerr.exit_input_error
    | Ok c -> (
      let r = Serve_client.status c in
      Serve_client.close c;
      match r with
      | Ok j -> print_endline (Json.to_string j)
      | Error f ->
        Stderr_line.line "client: %s" (Serve_client.failure_to_string f);
        exit Rerr.exit_input_error)
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Print a serve instance's status document.")
    Term.(const action $ req_socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:"Talk to a racedet serve instance (replay a trace, get status).")
    [ client_replay_cmd; client_status_cmd ]

(* ------------------------------------------------------------------ *)
(* list *)

let list_cmd =
  let action () =
    print_endline "workloads:";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-14s %s (threads=%d, %d seeded races)\n" w.name
          w.description w.defaults.threads w.expected_races)
      Registry.all;
    print_endline "\ndetectors:";
    List.iter (Printf.printf "  %s\n") Spec.all_names
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available workloads and detectors.")
    Term.(const action $ const ())

let () =
  let doc = "dynamic-granularity data race detection (IPDPS 2014 reproduction)" in
  let info = Cmd.info "racedet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; compare_cmd; profile_cmd; explore_cmd; record_cmd;
            convert_cmd; replay_cmd; inject_cmd; serve_cmd; client_cmd;
            trace_info_cmd; trace_dump_cmd; metrics_info_cmd; timings_cmd;
            list_cmd ]))
