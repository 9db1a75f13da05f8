(* The benchmark's workloads: each is a mix of recorded programs, chosen
   so the mixes load different layers (bench/perf/README.md gives the
   measured reasons).  Every program here reports the same races on
   every seed, so a race count that differs is a detector fault, not
   schedule noise; streamcluster is left out because its dynamic false
   alarms vary by seed. *)

type t = { name : string; programs : (string * int) list  (** program, scale *) }

let all =
  [
    (* decode and the same-epoch bitmap do most of the work *)
    { name = "hotpath"; programs = [ ("facesim", 16); ("fluidanimate", 16); ("x264", 16) ] };
    (* detect-bound: lock-heavy, read-shared clock histories *)
    { name = "syncheavy"; programs = [ ("canneal", 4); ("raytrace", 4); ("ferret", 4) ] };
    (* malloc/free churn and wholesale block writes, widest sharing *)
    { name = "churn"; programs = [ ("dedup", 8); ("pbzip2", 8) ] };
  ]

let find name = List.find_opt (fun m -> m.name = name) all
let names = List.map (fun m -> m.name) all

(* [with_scale k m] runs every program of [m] at scale [k] (the smoke
   check uses 1). *)
let with_scale k m = { m with programs = List.map (fun (p, _) -> (p, k)) m.programs }

let expected_races program =
  match Dgrace_workloads.Registry.find program with
  | Some w -> w.Dgrace_workloads.Workload.expected_races
  | None -> invalid_arg ("Mixes.expected_races: unknown program " ^ program)
