(* [perf.exe --diff A.json B.json]: compares two results files metric by
   metric against the bounds in BENCHMARK.json. *)

module Json = Dgrace_obs.Json

(* name -> ("lower" | "higher", bound); per-layer metrics have no bound *)
let bounds path =
  let j = match Json.parse_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  let section key =
    match Json.member key j with
    | Some (List ms) ->
      List.map
        (fun m ->
          ( Results.str (Results.field "name" m),
            (Results.str (Results.field "better" m), Option.map Results.num (Json.member "bound" m)) ))
        ms
    | _ -> []
  in
  section "end_to_end" @ section "per_layer"

(* One side of a row: a file may hold several runs of a workload (an
   ABBA series, say); their spread is then the run-to-run spread.  A
   single run brings the quartiles of its own reps. *)
let side runs =
  match runs with
  | [ s ] -> s
  | _ -> Quant.of_samples (List.map (fun (s : Quant.stat) -> s.value) runs)

(* The flag for one row.  [worse] is the change from A to B as a share
   of A, positive when B is worse. *)
let flag ~bound ~spread ~worse =
  match bound with
  | None -> "-"
  | Some b when spread > b -> "unresolved"
  | Some b when worse > b -> "regressed"
  | Some b when -.worse > b -> "improved"
  | Some _ -> "ok"

(* Prints one row per (workload, metric) found in both files; returns
   the number of regressed rows. *)
let run a b =
  let bounds = bounds "BENCHMARK.json" in
  let ra = Results.load a and rb = Results.load b in
  let values runs (x : Results.t) name =
    List.concat_map
      (fun (r : Results.t) ->
        if r.workload = x.workload && r.mode = x.mode then
          List.filter_map (fun (m : Results.metric) -> if m.name = name then Some m.stat else None) r.metrics
        else [])
      runs
  in
  Printf.printf "%-10s %-32s %11s %21s %11s %21s %5s %8s %5s %s\n" "workload" "metric" "A" "A q1..q3" "B" "B q1..q3" "n"
    "delta" "bound" "flag";
  let regressed = ref 0 and seen = Hashtbl.create 64 in
  List.iter
    (fun (x : Results.t) ->
      List.iter
        (fun (m : Results.metric) ->
          let va = values ra x m.name and vb = values rb x m.name in
          if vb <> [] && not (Hashtbl.mem seen (x.workload, x.mode, m.name)) then begin
            Hashtbl.add seen (x.workload, x.mode, m.name) ();
            let sa = side va and sb = side vb in
            let better, bound = Option.value (List.assoc_opt m.name bounds) ~default:("lower", None) in
            let sign = if better = "higher" then -1. else 1. in
            let delta = if sa.value = 0. then 0. else (sb.value -. sa.value) /. Float.abs sa.value in
            let f = flag ~bound ~spread:(Float.max (Quant.spread sa) (Quant.spread sb)) ~worse:(sign *. delta) in
            if f = "regressed" then incr regressed;
            Printf.printf "%-10s %-32s %11.5g %10.5g..%-9.5g %11.5g %10.5g..%-9.5g %2d/%-2d %+7.1f%% %5s %s\n" x.workload
              m.name sa.value sa.q1 sa.q3 sb.value sb.q1 sb.q3 (List.length va) (List.length vb) (100. *. delta)
              (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
              f
          end)
        x.metrics)
    ra;
  !regressed
