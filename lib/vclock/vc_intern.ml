(* Hash-consed arena of immutable vector-clock snapshots.

   A snapshot stores the live prefix of a clock as a flat, trimmed
   [int array] (last element non-zero).  Snapshots are refcounted:
   detectors retain one reference per place a clock is "captured"
   (read-shared history, segment clock, history entry), so capturing
   the same clock twice costs one refcount bump instead of a deep
   copy.  Payload arrays of dead snapshots are pooled per length class
   and recycled, keeping the steady-state access path allocation-free.

   The arena is single-domain by construction: each detector owns
   one, and a detector runs on one domain.  Only the uid counter is
   global, hence atomic. *)

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = {
  uid : int;  (* > 0; keyed into Vector_clock memo fields *)
  consing : bool;  (* false = the unconsed contrast arena (tests, bench) *)
  table : snap list Int_table.t;  (* content hash -> bucket *)
  mutable pool : int array array array;  (* payload length -> stack of spares *)
  mutable pool_count : int array;  (* payload length -> spares on its stack *)
  scratch : Vector_clock.t;  (* shared mutable staging clock *)
  on_bytes : (int -> unit) option;
  mutable live : int;
  mutable peak_live : int;
  mutable bytes : int;
  mutable peak_bytes : int;
  mutable pool_bytes : int;
  mutable interns : int;
  mutable hits : int;
  mutable memo_hits : int;
  mutable retains : int;
  mutable releases : int;
  mutable payload_allocs : int;
  mutable payload_recycles : int;
}

and snap = { payload : int array; hash : int; mutable refs : int; owner : t }

type stats = {
  s_live : int;
  s_peak_live : int;
  s_bytes : int;
  s_peak_bytes : int;
  s_pool_bytes : int;
  s_interns : int;
  s_hits : int;
  s_memo_hits : int;
  s_retains : int;
  s_releases : int;
  s_payload_allocs : int;
  s_payload_recycles : int;
}

let next_uid = Atomic.make 1

let create ?(hash_consing = true) ?on_bytes () =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    consing = hash_consing;
    table = Int_table.create 256;
    pool = [||];
    pool_count = [||];
    scratch = Vector_clock.create ();
    on_bytes;
    live = 0;
    peak_live = 0;
    bytes = 0;
    peak_bytes = 0;
    pool_bytes = 0;
    interns = 0;
    hits = 0;
    memo_hits = 0;
    retains = 0;
    releases = 0;
    payload_allocs = 0;
    payload_recycles = 0;
  }

(* FNV-1a over the live prefix.  The 64-bit offset basis is truncated
   to fit OCaml's 63-bit int; multiplication wraps silently, which is
   fine — buckets always confirm with a full content compare. *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

let hash_prefix (a : int array) len =
  let h = ref fnv_offset in
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get a i) * fnv_prime
  done;
  !h land max_int

(* snapshot record: header + 4 fields; payload: header + cells *)
let snap_words s = 5 + 1 + Array.length s.payload
let snap_bytes s = 8 * snap_words s

let account t d =
  t.bytes <- t.bytes + d;
  if t.bytes > t.peak_bytes then t.peak_bytes <- t.bytes;
  match t.on_bytes with Some f -> f d | None -> ()

(* top-level walkers: local [let rec] closures here would allocate on
   every call, right on the access fast path *)
let rec arr_eq_down (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && arr_eq_down a b (i - 1))

let rec arr_leq_up (a : int array) (b : int array) i n =
  i >= n || (a.(i) <= b.(i) && arr_leq_up a b (i + 1) n)

let matches_prefix s (raw : int array) len =
  Array.length s.payload = len && arr_eq_down s.payload raw (len - 1)

let pool_cap = 64

let alloc_payload t len =
  if len < Array.length t.pool_count && t.pool_count.(len) > 0 then begin
    let n = t.pool_count.(len) - 1 in
    let stack = t.pool.(len) in
    let a = stack.(n) in
    stack.(n) <- [||];
    t.pool_count.(len) <- n;
    t.pool_bytes <- t.pool_bytes - (8 * (1 + len));
    t.payload_recycles <- t.payload_recycles + 1;
    a
  end
  else begin
    t.payload_allocs <- t.payload_allocs + 1;
    Array.make len 0
  end

(* Grow the length-indexed pool to cover [len]; a length's stack is
   allocated when its first spare arrives. *)
let pool_cover t len =
  let n = Array.length t.pool_count in
  if len >= n then begin
    let n' = max (len + 1) (2 * n) in
    let pool = Array.make n' [||] and count = Array.make n' 0 in
    Array.blit t.pool 0 pool 0 n;
    Array.blit t.pool_count 0 count 0 n;
    t.pool <- pool;
    t.pool_count <- count
  end;
  if Array.length t.pool.(len) = 0 then t.pool.(len) <- Array.make pool_cap [||]

let recycle_payload t (a : int array) =
  let len = Array.length a in
  pool_cover t len;
  let n = t.pool_count.(len) in
  if n < pool_cap then begin
    t.pool.(len).(n) <- a;
    t.pool_count.(len) <- n + 1;
    t.pool_bytes <- t.pool_bytes + (8 * (1 + len))
  end

(* The bucket suffix starting at the snapshot whose payload is the
   given prefix, [[]] when there is none: a search with no closure and
   no option. *)
let rec bucket_find (raw : int array) len = function
  | [] -> []
  | s :: _ as l when matches_prefix s raw len -> l
  | _ :: rest -> bucket_find raw len rest

(* The bucket without [s]; cells before [s] are rebuilt, and buckets
   rarely hold more than one snapshot. *)
let rec bucket_remove s = function
  | [] -> []
  | x :: rest -> if x == s then rest else x :: bucket_remove s rest

let intern t vc =
  t.interns <- t.interns + 1;
  (* generation memo: an unchanged clock re-interns to the same live
     snapshot without touching the hash table.  The refs > 0 check
     makes stale memos (snapshot since released) sound. *)
  if
    t.consing
    && Vector_clock.memo_arena vc = t.uid
    && Vector_clock.memo_gen vc = Vector_clock.generation vc
    && (Obj.obj (Vector_clock.memo_snap vc) : snap).refs > 0
  then begin
    let s : snap = Obj.obj (Vector_clock.memo_snap vc) in
    t.hits <- t.hits + 1;
    t.memo_hits <- t.memo_hits + 1;
    s.refs <- s.refs + 1;
    s
  end
  else begin
    let raw = Vector_clock.raw vc in
    let len = Vector_clock.max_tid_set vc + 1 in
    let h = hash_prefix raw len in
    let bucket = if t.consing then Int_table.find_or t.table h ~default:[] else [] in
    match bucket_find raw len bucket with
    | s :: _ ->
      t.hits <- t.hits + 1;
      s.refs <- s.refs + 1;
      Vector_clock.memo_store vc ~arena:t.uid (Obj.repr s);
      s
    | [] ->
      let payload = alloc_payload t len in
      Array.blit raw 0 payload 0 len;
      let s = { payload; hash = h; refs = 1; owner = t } in
      t.live <- t.live + 1;
      if t.live > t.peak_live then t.peak_live <- t.live;
      account t (snap_bytes s);
      if t.consing then begin
        Int_table.replace t.table h (s :: bucket);
        Vector_clock.memo_store vc ~arena:t.uid (Obj.repr s)
      end;
      s
  end

let retain s =
  if s.refs <= 0 then invalid_arg "Vc_intern.retain: snapshot already freed";
  s.refs <- s.refs + 1;
  s.owner.retains <- s.owner.retains + 1

let release s =
  if s.refs <= 0 then invalid_arg "Vc_intern.release: snapshot already freed";
  let t = s.owner in
  s.refs <- s.refs - 1;
  t.releases <- t.releases + 1;
  if s.refs = 0 then begin
    t.live <- t.live - 1;
    account t (-snap_bytes s);
    if t.consing then begin
      match bucket_remove s (Int_table.find_or t.table s.hash ~default:[]) with
      | [] -> Int_table.remove t.table s.hash
      | l' -> Int_table.replace t.table s.hash l'
    end;
    recycle_payload t s.payload
  end

let refcount s = s.refs
let scratch t = t.scratch
let max_tid_set s = Array.length s.payload - 1
let get s tid = if tid >= 0 && tid < Array.length s.payload then s.payload.(tid) else 0

let equal a b =
  a == b
  ||
  let n = Array.length a.payload in
  n = Array.length b.payload && arr_eq_down a.payload b.payload (n - 1)

(* payloads are trimmed (last element non-zero), so a longer payload
   can never be <= a shorter one *)
let leq a b =
  let n = Array.length a.payload in
  n <= Array.length b.payload && arr_leq_up a.payload b.payload 0 n

let rec payload_leq_clock (p : int array) vc i n =
  i >= n || (p.(i) <= Vector_clock.get vc i && payload_leq_clock p vc (i + 1) n)

let leq_clock s vc = payload_leq_clock s.payload vc 0 (Array.length s.payload)

let fold f s acc =
  let acc = ref acc in
  for i = 0 to Array.length s.payload - 1 do
    if s.payload.(i) <> 0 then acc := f i s.payload.(i) !acc
  done;
  !acc

let with_component s ~tid ~clock =
  if get s tid = clock then begin
    retain s;
    s
  end
  else begin
    let t = s.owner in
    Vector_clock.load t.scratch s.payload (Array.length s.payload);
    Vector_clock.set t.scratch tid clock;
    intern t t.scratch
  end

let load_into s vc = Vector_clock.load vc s.payload (Array.length s.payload)

let to_clock s =
  let vc = Vector_clock.create ~capacity:(max 1 (Array.length s.payload)) () in
  load_into s vc;
  vc

let stats t =
  {
    s_live = t.live;
    s_peak_live = t.peak_live;
    s_bytes = t.bytes;
    s_peak_bytes = t.peak_bytes;
    s_pool_bytes = t.pool_bytes;
    s_interns = t.interns;
    s_hits = t.hits;
    s_memo_hits = t.memo_hits;
    s_retains = t.retains;
    s_releases = t.releases;
    s_payload_allocs = t.payload_allocs;
    s_payload_recycles = t.payload_recycles;
  }
