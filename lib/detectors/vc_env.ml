open Dgrace_vclock
open Dgrace_events

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* Slot of a thread not seen yet: compared physically, never mutated. *)
let no_clock = Vector_clock.create ()

type t = {
  mutable threads : Vector_clock.t array;  (* indexed by tid; grown on demand *)
  mutable seen : int;  (* 1 + the largest tid seen *)
  locks : Vector_clock.t Int_table.t;
}

let create () =
  { threads = Array.make 8 no_clock; seen = 0; locks = Int_table.create 64 }

let start_thread t tid =
  if tid < 0 then invalid_arg "Vc_env: negative thread id";
  let n = Array.length t.threads in
  if tid >= n then begin
    let a = Array.make (max (tid + 1) (2 * n)) no_clock in
    Array.blit t.threads 0 a 0 n;
    t.threads <- a
  end;
  t.seen <- max t.seen (tid + 1);
  let vc = Vector_clock.create () in
  Vector_clock.set vc tid 1;
  t.threads.(tid) <- vc;
  vc

let[@inline] clock_of t tid =
  let a = t.threads in
  if tid >= 0 && tid < Array.length a then begin
    let vc = Array.unsafe_get a tid in
    if vc != no_clock then vc else start_thread t tid
  end
  else start_thread t tid

let[@inline] epoch_of t tid =
  let vc = clock_of t tid in
  Epoch.make ~tid ~clock:(Vector_clock.get vc tid)

let thread_count t = t.seen

let[@inline] lock_vc t lock =
  let vc = Int_table.find_or t.locks lock ~default:no_clock in
  if vc != no_clock then vc
  else begin
    let vc = Vector_clock.create () in
    Int_table.replace t.locks lock vc;
    vc
  end

let acquire t ~tid ~lock = Vector_clock.join (clock_of t tid) (lock_vc t lock)

let release t ~tid ~lock =
  let c = clock_of t tid in
  Vector_clock.join (lock_vc t lock) c;
  Vector_clock.tick c tid

let fork t ~parent ~child =
  Vector_clock.join (clock_of t child) (clock_of t parent);
  Vector_clock.tick (clock_of t parent) parent

let join t ~parent ~child =
  Vector_clock.join (clock_of t parent) (clock_of t child)

let handle t ev ~on_boundary =
  match ev with
  | Event.Acquire { tid; lock; sync = _ } ->
    acquire t ~tid ~lock;
    true
  | Event.Release { tid; lock; sync = _ } ->
    release t ~tid ~lock;
    on_boundary tid;
    true
  | Event.Fork { parent; child } ->
    fork t ~parent ~child;
    on_boundary parent;
    true
  | Event.Join { parent; child } ->
    join t ~parent ~child;
    true
  | Event.Thread_exit { tid } ->
    (* final epoch boundary so a subsequent join sees a settled clock *)
    Vector_clock.tick (clock_of t tid) tid;
    on_boundary tid;
    true
  | Event.Access _ | Event.Alloc _ | Event.Free _ -> false

(* Kind-coded dispatch for the batched fast path: the same transitions
   as [handle] driven straight off a {!Batch.t} row's columns, so sync
   rows never materialise an [Event.t]. *)
let handle_coded t ~kind ~a ~b ~on_boundary =
  if kind = Batch.code_acquire then begin
    acquire t ~tid:a ~lock:b;
    true
  end
  else if kind = Batch.code_release then begin
    release t ~tid:a ~lock:b;
    on_boundary a;
    true
  end
  else if kind = Batch.code_fork then begin
    fork t ~parent:a ~child:b;
    on_boundary a;
    true
  end
  else if kind = Batch.code_join then begin
    join t ~parent:a ~child:b;
    true
  end
  else if kind = Batch.code_exit then begin
    Vector_clock.tick (clock_of t a) a;
    on_boundary a;
    true
  end
  else false
