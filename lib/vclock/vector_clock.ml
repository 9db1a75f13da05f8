(* [last] caches the highest non-zero component (-1 when the clock is
   all-zero): [leq]/[join]/[equal] walk only the live prefix and
   [max_tid_set] is O(1).  [gen] counts content mutations so an arena
   can memoise "this exact clock state was already interned" (see
   Vc_intern); the memo fields belong to that protocol and carry no
   clock semantics. *)
(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = {
  mutable clocks : int array;
  mutable last : int;  (* invariant: clocks.(i) = 0 for all i > last *)
  mutable gen : int;
  mutable memo_arena : int;  (* Vc_intern arena uid, 0 = no memo *)
  mutable memo_gen : int;
  mutable memo_snap : Obj.t;
}

let no_memo = Obj.repr 0

let create ?(capacity = 4) () =
  let capacity = max capacity 1 in
  {
    clocks = Array.make capacity 0;
    last = -1;
    gen = 0;
    memo_arena = 0;
    memo_gen = -1;
    memo_snap = no_memo;
  }

let[@inline] get vc tid = if tid < Array.length vc.clocks then vc.clocks.(tid) else 0

let grow vc needed =
  let cap = max needed (2 * Array.length vc.clocks) in
  let a = Array.make cap 0 in
  Array.blit vc.clocks 0 a 0 (Array.length vc.clocks);
  vc.clocks <- a

let rescan_last vc from =
  let i = ref from in
  while !i >= 0 && vc.clocks.(!i) = 0 do decr i done;
  vc.last <- !i

let set vc tid c =
  if tid < 0 then invalid_arg "Vector_clock.set: negative tid";
  if c < 0 then invalid_arg "Vector_clock.set: negative clock";
  if get vc tid <> c then begin
    if tid >= Array.length vc.clocks then grow vc (tid + 1);
    vc.clocks.(tid) <- c;
    if c <> 0 then begin
      if tid > vc.last then vc.last <- tid
    end
    else if tid = vc.last then rescan_last vc (tid - 1);
    vc.gen <- vc.gen + 1
  end

let tick vc tid = set vc tid (get vc tid + 1)
let size vc = Array.length vc.clocks

let copy vc =
  {
    clocks = Array.copy vc.clocks;
    last = vc.last;
    gen = 0;
    memo_arena = 0;
    memo_gen = -1;
    memo_snap = no_memo;
  }

let reset vc =
  if vc.last >= 0 then begin
    Array.fill vc.clocks 0 (vc.last + 1) 0;
    vc.last <- -1;
    vc.gen <- vc.gen + 1
  end

let assign dst src =
  let n = src.last + 1 in
  if n > Array.length dst.clocks then
    (* the live prefix does not fit: allocate; any existing array with
       enough capacity is reused below regardless of exact length *)
    dst.clocks <- Array.make (max n (2 * Array.length dst.clocks)) 0
  else if dst.last >= 0 then Array.fill dst.clocks 0 (dst.last + 1) 0;
  if n > 0 then Array.blit src.clocks 0 dst.clocks 0 n;
  dst.last <- src.last;
  dst.gen <- dst.gen + 1

let load dst src len =
  if len > Array.length src then
    invalid_arg "Vector_clock.load: length exceeds source";
  reset dst;
  if len > Array.length dst.clocks then grow dst len;
  if len > 0 then Array.blit src 0 dst.clocks 0 len;
  rescan_last dst (len - 1);
  dst.gen <- dst.gen + 1

let join dst src =
  let n = src.last + 1 in
  (* grow exactly to [n], never beyond: growing to amortised capacity
     here would let two clocks that repeatedly join each other (thread
     and lock clocks under contention) double one another's storage on
     every round — exponential blow-up *)
  if n > Array.length dst.clocks then begin
    let a = Array.make n 0 in
    Array.blit dst.clocks 0 a 0 (Array.length dst.clocks);
    dst.clocks <- a
  end;
  let changed = ref false in
  for i = 0 to n - 1 do
    if src.clocks.(i) > dst.clocks.(i) then begin
      dst.clocks.(i) <- src.clocks.(i);
      changed := true
    end
  done;
  if !changed then begin
    if src.last > dst.last then dst.last <- src.last;
    dst.gen <- dst.gen + 1
  end

(* top-level prefix walkers: a local [let rec] here would close over
   the operands and allocate a closure per call, off the
   allocation-free fast path *)
let rec prefix_leq (a : int array) (b : int array) i last =
  i > last || (a.(i) <= b.(i) && prefix_leq a b (i + 1) last)

let rec prefix_eq (a : int array) (b : int array) i last =
  i > last || (a.(i) = b.(i) && prefix_eq a b (i + 1) last)

let leq a b = a.last <= b.last && prefix_leq a.clocks b.clocks 0 a.last
let equal a b = a.last = b.last && prefix_eq a.clocks b.clocks 0 a.last

let[@inline] epoch_leq e vc = Epoch.clock e <= get vc (Epoch.tid e)

let of_epoch e =
  let vc = create ~capacity:(Epoch.tid e + 1) () in
  set vc (Epoch.tid e) (Epoch.clock e);
  vc

let max_tid_set vc = vc.last

(* record header+field (2) + array header (1) + cells.  The [last]/
   [gen]/memo instrumentation fields are deliberately excluded: the
   accounting models the flat C layout the paper costs, and keeping the
   formula stable keeps Table 2 comparable across revisions. *)
let heap_words vc = 3 + Array.length vc.clocks

let fold f vc acc =
  let acc = ref acc in
  for i = 0 to vc.last do
    if vc.clocks.(i) <> 0 then acc := f i vc.clocks.(i) !acc
  done;
  !acc

let raw vc = vc.clocks
let generation vc = vc.gen
let memo_arena vc = vc.memo_arena
let memo_gen vc = vc.memo_gen
let memo_snap vc = vc.memo_snap

let memo_store vc ~arena snap =
  vc.memo_arena <- arena;
  vc.memo_gen <- vc.gen;
  vc.memo_snap <- snap

let pp ppf vc =
  Format.pp_print_string ppf "<";
  for i = 0 to vc.last do
    if i > 0 then Format.pp_print_string ppf ", ";
    Format.pp_print_int ppf vc.clocks.(i)
  done;
  Format.pp_print_string ppf ">"

let to_string vc = Format.asprintf "%a" pp vc
