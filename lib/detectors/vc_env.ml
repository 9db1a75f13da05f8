open Dgrace_vclock
open Dgrace_events
module Vec = Dgrace_util.Vec

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = {
  threads : Vector_clock.t option Vec.t;  (* indexed by tid *)
  locks : Vector_clock.t Int_table.t;
}

let create () = { threads = Vec.create (); locks = Int_table.create 64 }

let[@inline] clock_of t tid =
  while Vec.length t.threads <= tid do
    Vec.push t.threads None
  done;
  match Vec.get t.threads tid with
  | Some vc -> vc
  | None ->
    let vc = Vector_clock.create () in
    Vector_clock.set vc tid 1;
    Vec.set t.threads tid (Some vc);
    vc

let[@inline] epoch_of t tid =
  let vc = clock_of t tid in
  Epoch.make ~tid ~clock:(Vector_clock.get vc tid)

let thread_count t = Vec.length t.threads

let lock_vc t lock =
  match Int_table.find t.locks lock with
  | vc -> vc
  | exception Not_found ->
    let vc = Vector_clock.create () in
    Int_table.replace t.locks lock vc;
    vc

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

let lock_vc_bytes t =
  Int_table.fold (fun _ vc acc -> acc + (8 * Vector_clock.heap_words vc)) t.locks 0
