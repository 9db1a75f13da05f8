(* Struct-of-arrays event batches: the unit of work for the batched
   detector fast path.  A batch holds up to [capacity] decoded events
   as parallel int arrays — the location column holds ids of the
   batch's {!Loc_table} — so there is no per-event allocation and no
   pointer store on the hot path, and a detector's [process_batch] can
   walk the columns with plain array loads.

   The [kind] column uses the same numeric codes as the v1/v2 trace
   tags (0=read .. 8=exit) so trace decoders can fill batches without
   a translation table; sync kinds use the wire codes 0..3.  Column
   meaning per kind:

     kind         a        b      c           loc
     read/write   tid      addr   size        location id (0 = "")
     acq/rel      tid      lock   sync code   0
     fork/join    parent   child  0           0
     alloc/free   tid      addr   size        0
     exit         tid      0      0           0

   [off] carries each record's absolute offset in the source trace
   (or -1 when the producer has no byte offsets); race reports from a
   batch are attributed to these offsets so batched and per-event
   replays order races identically. *)

let default_capacity = 4096

(* kind codes — numerically identical to Trace_format.tag_* *)
let code_read = 0
let code_write = 1
let code_acquire = 2
let code_release = 3
let code_fork = 4
let code_join = 5
let code_alloc = 6
let code_free = 7
let code_exit = 8

let sync_code = function
  | Event.Lock -> 0
  | Event.Barrier -> 1
  | Event.Flag -> 2
  | Event.Atomic -> 3

let sync_of_code = function
  | 0 -> Event.Lock
  | 1 -> Event.Barrier
  | 2 -> Event.Flag
  | _ -> Event.Atomic

type t = {
  mutable len : int;
  kind : int array;
  a : int array;
  b : int array;
  c : int array;
  loc : int array;
  off : int array;
  mutable locs : Loc_table.t;
}

let create ?(capacity = default_capacity) ?locs () =
  if capacity <= 0 then invalid_arg "Batch.create: capacity must be positive";
  {
    len = 0;
    kind = Array.make capacity 0;
    a = Array.make capacity 0;
    b = Array.make capacity 0;
    c = Array.make capacity 0;
    loc = Array.make capacity Loc_table.empty;
    off = Array.make capacity (-1);
    locs = (match locs with Some l -> l | None -> Loc_table.create ());
  }

let capacity t = Array.length t.kind
let length t = t.len
let is_full t = t.len >= Array.length t.kind

let locs t = t.locs

(* Ids hold no pointers: a parked batch pins nothing. *)
let clear t = t.len <- 0

(* Append a decoded event.  [off] is the record's absolute offset in
   the source stream; defaults to -1 (unknown). *)
let push t ?(off = -1) ev =
  let i = t.len in
  if i >= Array.length t.kind then invalid_arg "Batch.push: batch full";
  (match ev with
   | Event.Access { tid; kind; addr; size; loc } ->
     t.kind.(i) <- (if kind = Event.Read then code_read else code_write);
     t.a.(i) <- tid;
     t.b.(i) <- addr;
     t.c.(i) <- size;
     t.loc.(i) <- Loc_table.intern t.locs loc
   | Event.Acquire { tid; lock; sync } ->
     t.kind.(i) <- code_acquire;
     t.a.(i) <- tid;
     t.b.(i) <- lock;
     t.c.(i) <- sync_code sync;
     t.loc.(i) <- Loc_table.empty
   | Event.Release { tid; lock; sync } ->
     t.kind.(i) <- code_release;
     t.a.(i) <- tid;
     t.b.(i) <- lock;
     t.c.(i) <- sync_code sync;
     t.loc.(i) <- Loc_table.empty
   | Event.Fork { parent; child } ->
     t.kind.(i) <- code_fork;
     t.a.(i) <- parent;
     t.b.(i) <- child;
     t.c.(i) <- 0;
     t.loc.(i) <- Loc_table.empty
   | Event.Join { parent; child } ->
     t.kind.(i) <- code_join;
     t.a.(i) <- parent;
     t.b.(i) <- child;
     t.c.(i) <- 0;
     t.loc.(i) <- Loc_table.empty
   | Event.Alloc { tid; addr; size } ->
     t.kind.(i) <- code_alloc;
     t.a.(i) <- tid;
     t.b.(i) <- addr;
     t.c.(i) <- size;
     t.loc.(i) <- Loc_table.empty
   | Event.Free { tid; addr; size } ->
     t.kind.(i) <- code_free;
     t.a.(i) <- tid;
     t.b.(i) <- addr;
     t.c.(i) <- size;
     t.loc.(i) <- Loc_table.empty
   | Event.Thread_exit { tid } ->
     t.kind.(i) <- code_exit;
     t.a.(i) <- tid;
     t.b.(i) <- 0;
     t.c.(i) <- 0;
     t.loc.(i) <- Loc_table.empty);
  t.off.(i) <- off;
  t.len <- i + 1

(* Raised, not built by a call: a call on [add]'s path would make
   its callers spill their live values around it. *)
let full = Invalid_argument "Batch.add: batch full"

let[@inline] add t ~off kind a b c loc =
  let i = t.len in
  if i >= Array.length t.kind then raise full;
  Array.unsafe_set t.kind i kind;
  Array.unsafe_set t.a i a;
  Array.unsafe_set t.b i b;
  Array.unsafe_set t.c i c;
  Array.unsafe_set t.loc i loc;
  Array.unsafe_set t.off i off;
  t.len <- i + 1

(* Copy one row between batches, e.g. out of a recycled decoder batch.
   The copy is columnar (six array stores), so it costs no
   allocation; an empty [dst] takes [src]'s table. *)
let copy_row ~src i ~dst =
  let j = dst.len in
  if j >= Array.length dst.kind then invalid_arg "Batch.copy_row: batch full";
  if dst.locs != src.locs then begin
    if j > 0 then invalid_arg "Batch.copy_row: batches of two location tables";
    dst.locs <- src.locs
  end;
  dst.kind.(j) <- src.kind.(i);
  dst.a.(j) <- src.a.(i);
  dst.b.(j) <- src.b.(i);
  dst.c.(j) <- src.c.(i);
  dst.loc.(j) <- src.loc.(i);
  dst.off.(j) <- src.off.(i);
  dst.len <- j + 1

(* Reconstruct the [Event.t] at index [i] — the slow path for rare
   sync events inside a batched detector and for fallback loops. *)
let event t i =
  if i < 0 || i >= t.len then invalid_arg "Batch.event: index out of bounds";
  let k = t.kind.(i) in
  if k = code_read || k = code_write then
    Event.Access
      {
        tid = t.a.(i);
        kind = (if k = code_read then Event.Read else Event.Write);
        addr = t.b.(i);
        size = t.c.(i);
        loc = Loc_table.name t.locs t.loc.(i);
      }
  else if k = code_acquire then
    Event.Acquire { tid = t.a.(i); lock = t.b.(i); sync = sync_of_code t.c.(i) }
  else if k = code_release then
    Event.Release { tid = t.a.(i); lock = t.b.(i); sync = sync_of_code t.c.(i) }
  else if k = code_fork then Event.Fork { parent = t.a.(i); child = t.b.(i) }
  else if k = code_join then Event.Join { parent = t.a.(i); child = t.b.(i) }
  else if k = code_alloc then
    Event.Alloc { tid = t.a.(i); addr = t.b.(i); size = t.c.(i) }
  else if k = code_free then
    Event.Free { tid = t.a.(i); addr = t.b.(i); size = t.c.(i) }
  else Event.Thread_exit { tid = t.a.(i) }

let iter_events f t =
  for i = 0 to t.len - 1 do
    f (event t i)
  done

let of_events ?(capacity = default_capacity) ?locs evs =
  let n = List.length evs in
  let b = create ~capacity:(max capacity n) ?locs () in
  List.iter (fun ev -> push b ev) evs;
  b
