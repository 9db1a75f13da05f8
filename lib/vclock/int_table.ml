(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* Open addressing with linear probing over one flat array of
   key/value pairs: slot [i]'s key sits at [2i], its value at [2i+1].
   Keys are stored as immediates; a free slot holds [free], a private
   heap block in the key position, so no [int] is reserved and the
   probe for a key is one physical comparison per slot — a hit, a free
   slot (the miss) or a collision.  Removal shifts the rest of the
   probe run back instead of leaving tombstones, so a miss always ends
   at the first free slot.  The table is at most three-quarters full:
   a run stays a few slots long, and a binding costs 2.7-5.3 words,
   about what a chained table spends on its four-word cons block and
   its bucket word.

   The array's element type is a record type, so the compiler knows it
   is never a flat float array and reads it with plain loads, with no
   per-read tag test.  What the slots really hold — immediate keys,
   [free], values of any type — goes in and out through [Obj.magic]. *)

type key = int
type slot = { _never_built : unit }

type 'a t = {
  mutable slots : slot array;  (* 2 * capacity, capacity a power of two *)
  mutable mask : int;  (* capacity - 1 *)
  mutable shift : int;  (* 63 - log2 capacity: [home]'s top-bits shift *)
  mutable size : int;
  initial : int;  (* capacity [reset] returns to *)
}

let free : slot = Obj.magic (ref ())
let[@inline] of_key (k : int) : slot = Obj.magic k
let[@inline] to_key (s : slot) : int = Obj.magic s
let[@inline] of_value (v : 'a) : slot = Obj.magic v
let[@inline] to_value (s : slot) : 'a = Obj.magic s

(* Fibonacci hashing: multiply by 2^63 / phi (rounded to odd) and
   keep the product's top log2(capacity) bits.  Consecutive keys —
   lock ids, which a run numbers from 1, and page numbers — land about
   capacity / phi slots apart, so they fill the table evenly instead of
   forming long probe runs; FNV content hashes spread as well. *)
let[@inline] home shift k = (k * 0x4F1BBCDCBFA53E0B) lsr shift

let rec log2 c = if c = 1 then 0 else 1 + log2 (c lsr 1)

(* Room for [size] bindings in [cap] slots. *)
let[@inline] fits size cap = 4 * size <= 3 * cap

let rec cap_for n c = if fits n c then c else cap_for n (2 * c)

let create n =
  let cap = cap_for n 8 in
  {
    slots = Array.make (2 * cap) free;
    mask = cap - 1;
    shift = 63 - log2 cap;
    size = 0;
    initial = cap;
  }

let length t = t.size

(* Slot index of [k], or the negative [-1 - free slot] that ends its
   probe run. *)
let rec probe slots mask k i =
  let s = Array.unsafe_get slots (2 * i) in
  if s == of_key k then i
  else if s == free then -1 - i
  else probe slots mask k ((i + 1) land mask)

let[@inline] index t k = probe t.slots t.mask k (home t.shift k)

let[@inline] find_or t k ~default =
  let i = index t k in
  if i >= 0 then to_value (Array.unsafe_get t.slots ((2 * i) + 1)) else default

let find t k =
  let i = index t k in
  if i >= 0 then to_value (Array.unsafe_get t.slots ((2 * i) + 1))
  else raise Not_found

let find_opt t k =
  let i = index t k in
  if i >= 0 then Some (to_value (Array.unsafe_get t.slots ((2 * i) + 1)))
  else None

let[@inline] mem t k = index t k >= 0

let iter f t =
  let slots = t.slots in
  for i = 0 to t.mask do
    let s = Array.unsafe_get slots (2 * i) in
    if s != free then f (to_key s) (to_value (Array.unsafe_get slots ((2 * i) + 1)))
  done

(* Insert into a table known not to hold [k] and to have room. *)
let place t k v i =
  let slots = t.slots in
  Array.unsafe_set slots (2 * i) (of_key k);
  Array.unsafe_set slots ((2 * i) + 1) v;
  t.size <- t.size + 1

let resize t cap =
  let old = t.slots in
  t.slots <- Array.make (2 * cap) free;
  t.mask <- cap - 1;
  t.shift <- 63 - log2 cap;
  t.size <- 0;
  for i = 0 to (Array.length old / 2) - 1 do
    let s = Array.unsafe_get old (2 * i) in
    if s != free then begin
      let k = to_key s in
      place t k (Array.unsafe_get old ((2 * i) + 1)) (-1 - index t k)
    end
  done

let replace t k v =
  let i = index t k in
  if i >= 0 then Array.unsafe_set t.slots ((2 * i) + 1) (of_value v)
  else begin
    place t k (of_value v) (-1 - i);
    if not (fits t.size (t.mask + 1)) then resize t (2 * (t.mask + 1))
  end

(* Backward-shift deletion: walk the run after the hole and move back
   every binding whose home is not inside (hole, j] cyclically — it
   would become unreachable past the hole — then free the last hole. *)
let remove t k =
  let i = index t k in
  if i >= 0 then begin
    let slots = t.slots and mask = t.mask and shift = t.shift in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Array.unsafe_get slots (2 * !j) != free do
      let h = home shift (to_key (Array.unsafe_get slots (2 * !j))) in
      if (!j - h) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set slots (2 * !hole) (Array.unsafe_get slots (2 * !j));
        Array.unsafe_set slots ((2 * !hole) + 1)
          (Array.unsafe_get slots ((2 * !j) + 1));
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set slots (2 * !hole) free;
    Array.unsafe_set slots ((2 * !hole) + 1) free;
    t.size <- t.size - 1
  end

let clear t =
  if t.size > 0 then begin
    Array.fill t.slots 0 (Array.length t.slots) free;
    t.size <- 0
  end

let reset t =
  if t.mask + 1 = t.initial then clear t
  else begin
    t.slots <- Array.make (2 * t.initial) free;
    t.mask <- t.initial - 1;
    t.shift <- 63 - log2 t.initial;
    t.size <- 0
  end

let longest_probe t =
  let longest = ref 0 in
  for i = 0 to t.mask do
    let s = Array.unsafe_get t.slots (2 * i) in
    if s != free then
      longest :=
        max !longest (((i - home t.shift (to_key s)) land t.mask) + 1)
  done;
  !longest

let copy t = { t with slots = Array.copy t.slots }
