(* Order statistics over repeated measurements. *)

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method), so a spread computed here matches one computed
   from the same values by an outside script.  One value is its own
   quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quant.quartiles: no values";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* A metric as reported: the headline value, the quartiles of the
   per-rep values behind it, and how many reps there were. *)
type stat = { value : float; q1 : float; q3 : float; n : int }

let of_samples ?value xs =
  let q1, m, q3 = quartiles xs in
  { value = Option.value value ~default:m; q1; q3; n = List.length xs }

let exact v = { value = v; q1 = v; q3 = v; n = 1 }

(* Interquartile distance as a share of the value: the run-to-run
   spread a bound is compared against. *)
let spread s = if s.value = 0. then 0. else Float.abs (s.q3 -. s.q1) /. Float.abs s.value

(* Calls [f] at least [min] times, then until the next call would end
   past [seconds] by the mean call so far; returns the number of calls. *)
let repeat ~seconds ~min f =
  let t0 = Unix.gettimeofday () in
  let rec go n =
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min && elapsed +. (elapsed /. float n) > seconds then n
    else begin
      f ();
      go (n + 1)
    end
  in
  go 0
