(* Wall-clock nanoseconds for the tracing layer.  [Unix.gettimeofday]
   is the only portable time source available without C stubs; it can
   step backwards under NTP, so [Span] clamps its timestamps to
   keep exported traces monotone.  Plain [int] nanoseconds: 63 bits
   hold wall-clock epochs until the year 2262, and unboxed ints keep
   the hot recording path allocation-free. *)

type source = unit -> int

let ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Deterministic clock for tests: starts at [start] and advances by
   [step] nanoseconds per reading. *)
let ticker ?(start = 0) ?(step = 1000) () =
  let now = ref (start - step) in
  fun () ->
    now := !now + step;
    !now
