(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation section.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1 fig4  # a subset
     dune exec bench/main.exe -- --scale 8    # bigger workloads
     dune exec bench/main.exe -- --bechamel   # Bechamel timing runs,
                                              # one Test per table
     dune exec bench/main.exe -- --metrics-out BENCH.json
                                              # dump every measured run
                                              # as versioned JSON

   The Bechamel mode measures the wall-clock cost of the measurement
   kernel behind each table (workload x detector analysis runs) with
   bechamel's monotonic clock; the table mode prints the paper-style
   rows.  EXPERIMENTS.md records the paper-vs-measured comparison. *)

let all_tables : (string * (unit -> unit)) list =
  [
    ("table1", Tables.table1);
    ("table2", Tables.table2);
    ("table3", Tables.table3);
    ("table4", Tables.table4);
    ("table5", Tables.table5);
    ("table6", Tables.table6);
    ("trace", Tables.trace);
    ("batch", Tables.batch);
    ("vclock", Vclock_bench.run);
    ("ext", Tables.ext);
    ("related", Tables.related);
    ("sampling", Tables.sampling);
    ("sampling-scaled", Tables.sampling_scaled);
    ("threads", Tables.threads);
    ("csv", Tables.csv);
    ("fig1", Tables.fig1);
    ("fig4", Tables.fig4);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel: one Test.make per table.  Each test's kernel is a single
   fresh (workload x detector) analysis run representative of that
   table, so bechamel reports a stable per-run cost. *)

let kernel_run spec wname =
  let w = Option.get (Dgrace_workloads.Registry.find wname) in
  fun () ->
    ignore
      (Measure.analyze spec
         (Dgrace_core.Engine.Source.Program
            {
              policy = Measure.bench_policy;
              main = w.Dgrace_workloads.Workload.program w.defaults;
            })
        : Dgrace_core.Engine.summary)

let bechamel_tests () =
  let open Bechamel in
  let open Dgrace_core in
  Test.make_grouped ~name:"tables"
    [
      Test.make ~name:"table1-byte-facesim" (Staged.stage (kernel_run Spec.byte "facesim"));
      Test.make ~name:"table1-dynamic-facesim" (Staged.stage (kernel_run Spec.dynamic "facesim"));
      Test.make ~name:"table2-dynamic-dedup" (Staged.stage (kernel_run Spec.dynamic "dedup"));
      Test.make ~name:"table3-dynamic-pbzip2" (Staged.stage (kernel_run Spec.dynamic "pbzip2"));
      Test.make ~name:"table4-byte-streamcluster" (Staged.stage (kernel_run Spec.byte "streamcluster"));
      Test.make ~name:"table5-noinit-x264"
        (Staged.stage
           (kernel_run (Spec.Dynamic { init_state = false; init_sharing = false }) "x264"));
      Test.make ~name:"table6-drd-hmmsearch" (Staged.stage (kernel_run Spec.Drd "hmmsearch"));
      Test.make ~name:"table6-inspector-ferret" (Staged.stage (kernel_run Spec.Inspector "ferret"));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |]
  in
  List.iter
    (fun instance ->
      let tbl = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] in
      List.iter
        (fun (name, v) ->
          match Analyze.OLS.estimates v with
          | Some (est :: _) ->
            Printf.printf "%-36s %12.3f ms/run (%s)\n" name (est /. 1e6)
              (Bechamel.Measure.label instance)
          | Some [] | None -> Printf.printf "%-36s (no estimate)\n" name)
        (List.sort compare rows))
    instances

(* ------------------------------------------------------------------ *)
(* --faults: the resilience acceptance matrix — every fault mode under
   five seeds, asserting the recover-or-declare contract holds while
   the benchmark workloads are in the loop. *)

let run_faults () =
  let open Dgrace_core in
  let w = Option.get (Dgrace_workloads.Registry.find "dedup") in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  Printf.printf "\n== fault injection (workload=%s, %d seeds x %d modes) ==\n"
    w.Dgrace_workloads.Workload.name (List.length seeds)
    (List.length Fault_harness.all);
  let failures = ref 0 in
  List.iter
    (fun seed ->
      List.iter
        (fun fault ->
          let outcome =
            Fault_harness.run ~seed
              ~program:(w.Dgrace_workloads.Workload.program w.defaults)
              fault
          in
          if not (Fault_harness.acceptable outcome) then incr failures;
          Printf.printf "  seed=%-3d %-11s %s\n%!" seed
            (Fault_harness.name fault)
            (Fault_harness.describe outcome))
        Fault_harness.all)
    seeds;
  if !failures > 0 then begin
    Printf.eprintf "bench: --faults: %d contract violation(s)\n" !failures;
    exit 1
  end
  else Printf.printf "all injections recovered or declared\n"

let metrics_out = ref None

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse sel = function
    | [] -> List.rev sel
    | "--scale" :: n :: rest ->
      Measure.scale := int_of_string n;
      parse sel rest
    | "--reps" :: n :: rest ->
      Measure.reps := int_of_string n;
      parse sel rest
    | "--metrics-out" :: file :: rest ->
      metrics_out := Some file;
      parse sel rest
    | "--bechamel" :: rest ->
      run_bechamel ();
      parse sel rest
    | "--faults" :: rest ->
      run_faults ();
      parse sel rest
    | name :: rest when List.mem_assoc name all_tables -> parse (name :: sel) rest
    | other :: _ ->
      Printf.eprintf
        "unknown argument %S; expected: %s, --scale N, --reps N, \
         --bechamel, --faults, --metrics-out FILE\n"
        other
        (String.concat ", " (List.map fst all_tables));
      exit 1
  in
  let selected = parse [] args in
  let selected =
    if selected = [] && args = [] then
      (* csv is opt-in output, sampling-scaled is a long-running demo *)
      List.filter
        (fun n -> n <> "csv" && n <> "sampling-scaled")
        (List.map fst all_tables)
    else selected
  in
  Printf.printf
    "dgrace benchmark harness — scale=%d reps=%d (threads/workload defaults)\n"
    !Measure.scale !Measure.reps;
  List.iter (fun name -> (List.assoc name all_tables) ()) selected;
  match !metrics_out with
  | None -> ()
  | Some file ->
    Dgrace_obs.Json.to_file file (Measure.metrics_json ());
    Printf.eprintf "bench metrics written to %s\n" file
