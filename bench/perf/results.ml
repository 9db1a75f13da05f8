(* The outcome of one benchmark run, the result line the benchmark ends
   with, and the results files that collect runs for [--diff]. *)

module Json = Dgrace_obs.Json

type metric = { name : string; unit : string; stat : Quant.stat }

type t = {
  workload : string;
  mode : string;  (** ["end_to_end"] or ["per_layer"] *)
  seed : int;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : Json.t;  (** per-program figures behind the metrics *)
}

let schema = "dgrace-perf/1"

let to_json r =
  let metric m =
    ( m.name,
      Json.Obj
        [
          ("unit", String m.unit); ("value", Float m.stat.value); ("q1", Float m.stat.q1);
          ("q3", Float m.stat.q3); ("n", Int m.stat.n);
        ] )
  in
  Json.Obj
    [
      ("workload", String r.workload); ("mode", String r.mode); ("seed", Int r.seed);
      ("attempted", Int r.attempted); ("failed", Int r.failed);
      ("failed_share", Float (float r.failed /. float (max 1 r.attempted)));
      ("metrics", Obj (List.map metric r.metrics)); ("detail", r.detail);
    ]

(* The benchmark's last line of standard output. *)
let result_line r =
  Json.to_string ~minify:true
    (Obj
       [
         ("correct", Bool (r.failed = 0)); ("attempted", Int r.attempted); ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun m -> (m.name, Json.Obj [ ("value", Float m.stat.value); ("unit", String m.unit) ]))
                r.metrics) );
       ])

let print_table r =
  Printf.eprintf "%s %s seed %d: %d attempted, %d failed\n" r.workload r.mode r.seed r.attempted r.failed;
  List.iter
    (fun m ->
      let s = m.stat in
      Printf.eprintf "  %-32s %14.6g %-11s q1 %.6g q3 %.6g n %d\n" m.name s.value m.unit s.q1 s.q3 s.n)
    r.metrics;
  flush stderr

(* {1 Results files} *)

let fail fmt = Printf.ksprintf failwith fmt

let num = function
  | Json.Float f -> f
  | Json.Int i -> float i
  | Json.Null -> Float.nan
  | _ -> fail "expected a number"

let field name j = match Json.member name j with Some v -> v | None -> fail "missing field %S" name

let str = function Json.String s -> s | _ -> fail "expected a string"
let int = function Json.Int i -> i | _ -> fail "expected an integer"

let of_json j =
  let metric (name, m) =
    let stat =
      {
        Quant.value = num (field "value" m);
        q1 = num (field "q1" m);
        q3 = num (field "q3" m);
        n = int (field "n" m);
      }
    in
    { name; unit = str (field "unit" m); stat }
  in
  {
    workload = str (field "workload" j);
    mode = str (field "mode" j);
    seed = int (field "seed" j);
    attempted = int (field "attempted" j);
    failed = int (field "failed" j);
    metrics = (match field "metrics" j with Obj ms -> List.map metric ms | _ -> fail "metrics: expected an object");
    detail = field "detail" j;
  }

(* A results file is [{"schema": ..., "runs": [run, ...]}]. *)
let load path =
  match Json.parse_file path with
  | Error e -> fail "%s: %s" path e
  | Ok j -> (
    (match Json.member "schema" j with
     | Some (String s) when s = schema -> ()
     | _ -> fail "%s: not a %s results file" path schema);
    match field "runs" j with
    | List runs -> List.map of_json runs
    | _ -> fail "%s: runs: expected a list" path)

(* Adds [r] to the results file at [path], replacing an earlier run of
   the same workload, mode and seed, so one file collects a whole pass
   or a series of seeds. *)
let add_to_file path r =
  let others =
    if Sys.file_exists path then
      List.filter (fun o -> not (o.workload = r.workload && o.mode = r.mode && o.seed = r.seed)) (load path)
    else []
  in
  Json.to_file path (Obj [ ("schema", String schema); ("runs", List (List.map to_json (others @ [ r ]))) ])
