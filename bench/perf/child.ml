(* One racedet invocation as a child process: wall time, the exact peak
   RSS and CPU times from wait4, and the output lines the benchmark
   checks. *)

(* A child's ru_maxrss is the larger of its own peak and this
   process's RSS when it was spawned (the kernel carries the pre-exec
   high-water mark over), so the end-to-end part keeps this process
   small: no work of its own stays resident. *)
external wait4 : int -> int * int * float * float = "perf_wait4"

(* Binds this process's thread, and every child spawned after, to one
   CPU; returns its number. *)
external pin_cpu : unit -> int = "perf_pin_cpu"

type outcome = {
  argv : string list;
  code : int;  (** exit code, or minus the signal that killed it *)
  wall_s : float;
  maxrss_kb : int;
  user_s : float;
  sys_s : float;
  out : string;  (** standard output *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Runs [racedet args] with its output captured in files under [work]
   (stderr only so heartbeats stay out of the benchmark's own output);
   the call returns only after the child has been reaped. *)
let run ~racedet ~work args =
  let argv = racedet :: args in
  let out_path = Filename.concat work "child.out"
  and err_path = Filename.concat work "child.err" in
  let open_out p = Unix.openfile p [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let fd_out = open_out out_path and fd_err = open_out err_path in
  let t0 = Unix.gettimeofday () in
  let pid = Unix.create_process racedet (Array.of_list argv) Unix.stdin fd_out fd_err in
  let code, maxrss_kb, user_s, sys_s = wait4 pid in
  let wall_s = Unix.gettimeofday () -. t0 in
  Unix.close fd_out;
  Unix.close fd_err;
  { argv; code; wall_s; maxrss_kb; user_s; sys_s; out = read_file out_path }

let command o = String.concat " " o.argv
let cpu_s o = o.user_s +. o.sys_s

(* The first line of [o]'s output that [fmt] scans. *)
let scan o fmt f =
  List.find_map
    (fun line -> try Some (Scanf.sscanf line fmt f) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (String.split_on_char '\n' o.out)

let races o = scan o "races: %d" Fun.id
let accesses o = scan o "accesses=%d" Fun.id
let shadow_peak_bytes o = scan o "memory: peak=%dB" Fun.id

(* [recorded o] is [(events, accesses)] from [racedet record]. *)
let recorded o = scan o "recorded %d events (%d accesses" (fun e a -> (e, a))

(* The correctness gate for a detecting invocation: exit code 2 when
   races are expected and 0 otherwise, the race count the workload
   seeds, and every access of the trace analysed. *)
let check_detect ~expected ~accesses:want o =
  let want_code = if expected > 0 then 2 else 0 in
  if o.code <> want_code then Error (Printf.sprintf "exit %d, expected %d" o.code want_code)
  else
    match (races o, accesses o) with
    | None, _ | _, None -> Error "no races:/accesses= line in the output"
    | Some r, _ when r <> expected -> Error (Printf.sprintf "races: %d, expected %d" r expected)
    | _, Some a when a <> want -> Error (Printf.sprintf "accesses=%d, expected %d" a want)
    | _ -> Ok ()

let check_record o =
  if o.code <> 0 then Error (Printf.sprintf "exit %d, expected 0" o.code)
  else match recorded o with Some r -> Ok r | None -> Error "no recorded line in the output"

(* Checked operations against attempted ones; each failure is printed
   to stderr with what was run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let gate t ~what = function
  | Ok x ->
    t.attempted <- t.attempted + 1;
    Some x
  | Error why ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    Printf.eprintf "perf: FAILED (%s): %s\n%!" why what;
    None
