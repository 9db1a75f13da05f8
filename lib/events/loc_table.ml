(* Append-only location table.  [names] is id-indexed and doubles when
   full; [slots] is an open-addressing hash of every label but [""]
   (id 0 in every table, answered without hashing): a power-of-two
   array of ids, 0 for a free slot, probed linearly from the label's
   hash and kept at most half full.  A label costs one hash whether it
   is found or added: the probe that misses ends at the free slot the
   new id goes into.

   The memo is two-way set-associative: the set at [memo_entry s]
   holds the last two string pointers interned there, most recent
   first, and their ids, so a repeated label constant skips the hash
   (a C call over every byte) for a pointer compare or two.  The set
   is a multiplicative hash of the length and the last eight bytes
   (the part of "module:site" labels that tells them apart), the same
   for every pointer to one string; two ways keep two hot labels that
   share a set from evicting each other on every access.

   A table starts on shared, never-written arrays and allocates its
   own on the first label and the first memo miss: a decoder creates
   one per stream and never uses the memo, and most streams a test or
   a serve session opens are short. *)

type t = {
  mutable slots : int array;
  mutable names : string array;
  mutable next : int;
  mutable memo_s : string array;  (* entries [2k], [2k+1] form set [k] *)
  mutable memo_id : int array;
}

let empty = 0
let memo_bits = 5
let memo_len = 2 lsl memo_bits

(* No caller holds this string, so an unused memo entry never hits. *)
let no_string = String.make 1 '\000'

(* The arrays every table starts on; never written. *)
let no_names = [| "" |]
let no_slots = [| 0 |]
let no_memo_s = Array.make memo_len no_string
let no_memo_id = Array.make memo_len empty

let create () =
  {
    slots = no_slots;
    names = no_names;
    next = 1;
    memo_s = no_memo_s;
    memo_id = no_memo_id;
  }

(* The first entry of the label's memo set. *)
let[@inline] memo_entry s =
  let n = String.length s in
  let tail =
    if n >= 8 then Int64.to_int (String.get_int64_le s (n - 8))
    else if n = 0 then 0
    else
      Char.code (String.unsafe_get s 0)
      lor (Char.code (String.unsafe_get s (n lsr 1)) lsl 8)
      lor (Char.code (String.unsafe_get s (n - 1)) lsl 16)
  in
  ((tail lxor n) * 0x4F1BBCDCBFA53E0B) lsr (62 - memo_bits) land lnot 1

(* The slot of label [s] (hash [h]) in [slots]: its id's, or the free
   slot that ends its probe. *)
let rec probe names slots mask s i =
  let id = Array.unsafe_get slots i in
  if id = empty || String.equal (Array.unsafe_get names id) s then i
  else probe names slots mask s ((i + 1) land mask)

(* Twice the slots, every id re-placed; the first growth replaces the
   shared array. *)
let grow_slots t =
  let slots = Array.make (Int.max 32 (2 * Array.length t.slots)) empty in
  let mask = Array.length slots - 1 in
  for id = 1 to t.next - 1 do
    let s = t.names.(id) in
    slots.(probe t.names slots mask s (Hashtbl.hash s land mask)) <- id
  done;
  t.slots <- slots

let add t s i =
  let id = t.next in
  if id = Array.length t.names then begin
    let grown = Array.make (Int.max 16 (2 * id)) "" in
    Array.blit t.names 0 grown 0 id;
    t.names <- grown
  end;
  t.names.(id) <- s;
  t.next <- id + 1;
  t.slots.(i) <- id;
  id

let intern_once t s =
  if String.length s = 0 then empty
  else begin
    (* room for one more id, before the probe that places it *)
    if 2 * t.next >= Array.length t.slots then grow_slots t;
    let slots = t.slots in
    let mask = Array.length slots - 1 in
    let i = probe t.names slots mask s (Hashtbl.hash s land mask) in
    let id = Array.unsafe_get slots i in
    if id = empty then add t s i else id
  end

(* A memo miss: hash (no allocation on a hit), then make [s] the set's
   most recent entry. *)
let intern_slow t s k =
  let id = intern_once t s in
  if id <> empty then begin
    if t.memo_s == no_memo_s then begin
      t.memo_s <- Array.make memo_len no_string;
      t.memo_id <- Array.make memo_len empty
    end;
    let ms = t.memo_s and mi = t.memo_id in
    Array.unsafe_set ms (k + 1) (Array.unsafe_get ms k);
    Array.unsafe_set mi (k + 1) (Array.unsafe_get mi k);
    Array.unsafe_set ms k s;
    Array.unsafe_set mi k id
  end;
  id

let[@inline] intern t s =
  let k = memo_entry s in
  let ms = t.memo_s in
  if Array.unsafe_get ms k == s then Array.unsafe_get t.memo_id k
  else if Array.unsafe_get ms (k + 1) == s then Array.unsafe_get t.memo_id (k + 1)
  else intern_slow t s k

let unknown_id () = invalid_arg "Loc_table.name: unknown id"

let[@inline] name t id =
  if id >= 0 && id < t.next then Array.unsafe_get t.names id else unknown_id ()

let length t = t.next

let adopt t ~own =
  if t == own || own.next = 1 then t
  else invalid_arg "Loc_table.adopt: a batch from a foreign location table"
