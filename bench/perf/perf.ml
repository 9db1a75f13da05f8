(* dgrace's performance benchmark (bench/perf/README.md).

     perf.exe --workload W --seed S [--seconds T] [--trace 0|1]
     perf.exe --diff A.json B.json
     perf.exe --smoke

   Run from the repository root after building racedet.  The last line
   of standard output is the run's result as one JSON object. *)

let usage =
  "perf.exe --workload (" ^ String.concat "|" Mixes.names
  ^ ") --seed S [--seconds T] [--trace 0|1] [--out F] [--trace-out F] [--racedet PATH]\n\
     perf.exe --diff A.json B.json\n\
     perf.exe --smoke [--racedet PATH]"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let measure ~racedet ~work ~seed ~seconds ~min_reps ~trace ~trace_out mix =
  if not (Sys.file_exists racedet) then die "%s not found: build racedet first (dune build)" racedet;
  mkdir_p work;
  let trace_out = if trace_out = "" then Filename.concat work ("spans_" ^ mix.Mixes.name ^ ".json") else trace_out in
  if trace then Traced.run ~racedet ~work ~seed ~seconds ~trace_out mix
  else E2e.run ~racedet ~work ~seed ~seconds ~min_reps mix

(* Every workload end to end and traced, at scale 1 with one rep: the
   benchmark's own check that it still runs and that its outputs hold.
   All end-to-end runs come first: their calibration forks, which OCaml
   forbids once the traced part has started domains.  The traced runs
   then share the one CPU the end-to-end part bound the process to,
   which a check that compares no timings can afford. *)
let smoke ~racedet =
  let work = "_work" in
  let bad =
    List.concat_map
      (fun trace ->
        List.filter_map
          (fun mix ->
            let mix = Mixes.with_scale 1 mix in
            let r = measure ~racedet ~work ~seed:1 ~seconds:0. ~min_reps:1 ~trace ~trace_out:"" mix in
            Results.print_table r;
            if r.failed = 0 then None else Some (Printf.sprintf "%s %s: %d of %d failed" r.workload r.mode r.failed r.attempted))
          Mixes.all)
      [ false; true ]
  in
  List.iter (fun s -> prerr_endline ("perf smoke: " ^ s)) bad;
  if bad <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 and out = ref "" and trace_out = ref "" and racedet = ref "_build/default/bin/racedet.exe" and diff = ref []
  and smoke_mode = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W trace mix to run");
      ("--seed", Arg.Set_int seed, "S workload and schedule seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "T how long to measure (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer part instead (default 0)");
      ("--out", Arg.Set_string out, "F also add this run to the results file F");
      ("--trace-out", Arg.Set_string trace_out, "F span file of the traced part (default bench/perf/_work/spans_W.json)");
      ("--racedet", Arg.Set_string racedet, "PATH racedet binary (default _build/default/bin/racedet.exe)");
      ( "--diff",
        Arg.Tuple [ Arg.String (fun a -> diff := [ a ]); Arg.String (fun b -> diff := !diff @ [ b ]) ],
        "A.json B.json compare two results files against the bounds in BENCHMARK.json" );
      ("--smoke", Arg.Set smoke_mode, " every workload at scale 1, one rep, end to end and traced");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match !diff with
  | [ a; b ] -> exit (if Diff.run a b > 0 then 1 else 0)
  | _ ->
    if !smoke_mode then smoke ~racedet:!racedet
    else begin
      let mix = match Mixes.find !workload with Some m -> m | None -> die "unknown workload %S\n%s" !workload usage in
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      let r =
        measure ~racedet:!racedet ~work:"bench/perf/_work" ~seed:!seed ~seconds:!seconds ~min_reps:3
          ~trace:(!trace = 1) ~trace_out:!trace_out mix
      in
      Results.print_table r;
      if !out <> "" then Results.add_to_file !out r;
      print_endline (Results.result_line r)
    end
