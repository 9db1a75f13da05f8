open Dgrace_shadow

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* Slot of a thread without a bitmap: compared physically, never
   marked. *)
let none = Epoch_bitmap.create ()

type t = {
  mutable slots : Epoch_bitmap.t array;  (* indexed by tid; grown on demand *)
  account : Accounting.t;
}

let create ~account = { slots = Array.make 8 none; account }

let start_thread t tid =
  if tid < 0 then invalid_arg "Thread_bitmaps: negative thread id";
  let n = Array.length t.slots in
  if tid >= n then begin
    let a = Array.make (max (tid + 1) (2 * n)) none in
    Array.blit t.slots 0 a 0 n;
    t.slots <- a
  end;
  let b = Epoch_bitmap.create ~account:t.account () in
  t.slots.(tid) <- b;
  b

let[@inline] get t tid =
  let a = t.slots in
  if tid >= 0 && tid < Array.length a then begin
    let b = Array.unsafe_get a tid in
    if b != none then b else start_thread t tid
  end
  else start_thread t tid

let shed t =
  let freed = ref 0 in
  Array.iteri
    (fun i b ->
      if b != none then begin
        freed := !freed + Epoch_bitmap.bytes b;
        Epoch_bitmap.reset b;
        t.slots.(i) <- none
      end)
    t.slots;
  !freed

let chunk_counts t =
  Array.fold_left
    (fun (allocs, recycles) b ->
      if b == none then (allocs, recycles)
      else
        let s : Epoch_bitmap.stats = Epoch_bitmap.stats b in
        (allocs + s.chunk_allocs, recycles + s.chunk_recycles))
    (0, 0) t.slots
