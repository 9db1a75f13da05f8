(* Machine-speed calibration for the end-to-end timings.

   On the shared VM this benchmark was tuned on, a CPU's speed moves by
   up to a factor of two within seconds, in CPU time as well as in wall
   time, and each vCPU moves on its own.  [sample] times a fixed kernel
   of the kind of work racedet does: hashing, small allocations, and
   random reads and writes over a 2 MB array.  The end-to-end part binds
   itself and its children to one CPU and samples the kernel just
   before and just after every racedet invocation.  Each invocation's
   CPU time is scaled by [reference_s] over the mean of those two
   samples, so it reads as if measured on a CPU where the kernel takes
   [reference_s] (about this VM on a quiet host).  The kernel is the
   benchmark's own code, so a change to the repository cannot make it
   faster or slower.

   The kernel runs in a forked child, timed by the CPU time wait4
   reports: its memory must not stay in the benchmark's process,
   because a child's ru_maxrss also counts the resident pages of the
   parent it was spawned from. *)

let reference_s = 0.03

let kernel () =
  let h = Hashtbl.create 4096 in
  let a = Array.make (1 lsl 18) 0 in
  let x = ref 12345 in
  for i = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    (match Hashtbl.find_opt h k with
     | Some (_ :: t as l) -> Hashtbl.replace h k (i :: (if List.length t > 4 then [] else l))
     | Some [] | None -> Hashtbl.replace h k [ i ]);
    let j = !x land ((1 lsl 18) - 1) in
    a.(j) <- a.(j) + i
  done

(* The kernel's CPU time in seconds. *)
let sample () =
  match Unix.fork () with
  | 0 ->
    kernel ();
    Unix._exit 0
  | pid ->
    let _, _, user_s, sys_s = Child.wait4 pid in
    user_s +. sys_s
