(* Shadow table: the address -> shadow-cell index of every detector.

   Layout (doc/shadow.md has the full story).  The address space is
   carved into [block]-byte leaf pages reached through a flat
   two-level directory instead of a hash table:

     row index  = addr asr (block_bits + row_bits)
     page slot  = (addr asr block_bits) land (row_pages - 1)

   The root is a dense array of rows anchored at the first row ever
   touched; it grows geometrically toward whichever side a new
   address falls on, up to [max_window_rows].  Traces are untrusted
   (the varint decoder admits any 62-bit address), so rows that would
   stretch the window past that cap land in a spill hash table
   instead of forcing a multi-gigabyte root.  Directory arrays are
   bookkeeping, not shadow state: they are *not* counted in [bytes]
   (Table 2's hash column stays comparable across granularities); the
   [stats] accessor exposes them separately.

   A leaf page is a plain [Obj.t array] of slots.  An unoccupied slot
   holds the physically-unique [empty] sentinel, so occupied slots
   store the caller's value directly — no [Some] box per slot, no
   per-lookup hashing.  A one-entry MRU cache short-circuits the
   directory walk for the common same-page access run, and slot
   arrays released by [remove_range] are recycled through a small
   free-list pool (malloc/free-heavy workloads like dedup/pbzip2
   churn pages at a high rate).

   Adaptive granularity (paper Fig. 4): pages start with 4-byte slots
   and are rebuilt in place with byte slots the first time a sub-word
   access shows up.  The sub-word test is [size < 4 || addr land 3 <>
   0] *everywhere* — the previous implementation keyed fresh entries
   on [addr land 1] and masked even-but-unaligned (offset-2) accesses
   into word slots. *)

(* Hot-path convention: integer-only [min]/[max], so a polymorphic
   comparison (a C call through [compare_val]) cannot creep in. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type mode = Fixed_bytes of int | Adaptive

(* The unique "no value here" sentinel.  A private heap block, so it
   can never be physically equal to a value a caller stores.  Slots
   are [Obj.t array] rather than ['a option array]: one uniform boxed
   representation, which also side-steps the flat-float-array trap. *)
let empty : Obj.t = Obj.repr (ref ())

type page = {
  mutable p_base : int;  (* first address covered, block-aligned *)
  mutable slot_bytes : int;  (* current granularity of this page *)
  mutable shift : int;  (* log2 slot_bytes: slot index by shift *)
  mutable slots : Obj.t array;  (* block / slot_bytes slots *)
  mutable used : int;  (* occupied slots; 0 releases the page *)
}

(* Distinguished absences, compared physically. *)
let null_page : page =
  { p_base = min_int; slot_bytes = 1; shift = 0; slots = [||]; used = 0 }

let no_row : page array = [||]

(* Directory geometry: one row holds 2^row_bits page pointers.  With
   the default 128-byte block a row spans 64 KiB of address space, so
   the window cap covers 4 GiB before anything spills. *)
let row_bits = 9
let row_pages = 1 lsl row_bits
let max_window_rows = 1 lsl 16
let pool_cap = 64

type stats = {
  pages_live : int;
  pages_pooled : int;
  page_allocs : int;
  page_recycles : int;
  expansions : int;
  lookups : int;
  mru_hits : int;
  dir_bytes : int;
}

type 'a t = {
  block : int;
  block_bits : int;
  tmode : mode;
  account : Accounting.t option;
  mutable bytes : int;
  (* two-level directory *)
  mutable row_base : int;  (* row index of rows.(0) *)
  mutable rows : page array array;
  spill : (int, page array) Hashtbl.t;
  mutable spill_rows : int;
  (* MRU caches: last page and last row that answered a lookup *)
  mutable mru : page;
  mutable mru_row_idx : int;
  mutable mru_row : page array;
  (* free-list pools of released slot arrays, by length *)
  mutable pool_init : Obj.t array list;  (* length block / initial width *)
  mutable pool_byte : Obj.t array list;  (* length block *)
  mutable pool_init_n : int;
  mutable pool_byte_n : int;
  (* stats *)
  mutable pages_live : int;
  mutable page_allocs : int;
  mutable page_recycles : int;
  mutable expansions : int;
  mutable lookups : int;
  mutable mru_hits : int;
  mutable dir_words : int;
  (* bounds stashed by the last group walk or neighbour scan *)
  mutable found_lo : int;
  mutable found_hi : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go i n = if n <= 1 then i else go (i + 1) (n lsr 1) in
  go 0 n

(* Slot width of a page that has not seen a sub-word access. *)
let initial_width = function Fixed_bytes g -> g | Adaptive -> 4

(* The one sub-word predicate (shared with ensure_granularity): a
   fresh page keyed by a non-word-aligned address starts at byte
   slots. *)
let default_gran t addr =
  match t.tmode with
  | Fixed_bytes g -> g
  | Adaptive -> if addr land 3 <> 0 then 1 else 4

let create ?(block = 128) ~mode ?account () =
  if not (is_pow2 block) then
    invalid_arg "Shadow_table.create: block not a power of two";
  let g = initial_width mode in
  if not (is_pow2 g) || g > block then
    invalid_arg "Shadow_table.create: bad slot size";
  {
    block;
    block_bits = log2 block;
    tmode = mode;
    account;
    bytes = 0;
    row_base = 0;
    rows = [||];
    spill = Hashtbl.create 8;
    spill_rows = 0;
    mru = null_page;
    mru_row_idx = min_int;
    mru_row = no_row;
    pool_init = [];
    pool_byte = [];
    pool_init_n = 0;
    pool_byte_n = 0;
    pages_live = 0;
    page_allocs = 0;
    page_recycles = 0;
    expansions = 0;
    lookups = 0;
    mru_hits = 0;
    dir_words = 0;
    found_lo = 0;
    found_hi = 0;
  }

let mode t = t.tmode
let block t = t.block

(* Accounting counts leaf pages only: header words (page record +
   array header + base/width bookkeeping) plus one word per slot. *)
let page_bytes nslots = 8 * (6 + nslots)

let account_delta t d =
  t.bytes <- t.bytes + d;
  match t.account with Some a -> Accounting.add_hash a d | None -> ()

let[@inline] base_of t addr = addr land lnot (t.block - 1)

(* [asr], not [lsr]: neighbour probes can step below address zero and
   the directory must index sign-consistently. *)
let row_of t addr = addr asr (t.block_bits + row_bits)
let page_slot t addr = (addr asr t.block_bits) land (row_pages - 1)

(* ------------------------------------------------------------------ *)
(* Directory                                                          *)

let[@inline] row_for t ri =
  if ri = t.mru_row_idx then t.mru_row
  else begin
    let i = ri - t.row_base in
    let r =
      if i >= 0 && i < Array.length t.rows then t.rows.(i)
      else if t.spill_rows = 0 then no_row
      else match Hashtbl.find_opt t.spill ri with Some r -> r | None -> no_row
    in
    if r != no_row then begin
      t.mru_row_idx <- ri;
      t.mru_row <- r
    end;
    r
  end

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Place row [ri], growing or re-anchoring the root window as needed;
   rows outside the capped window go to the spill table. *)
let ensure_row t ri =
  let r = row_for t ri in
  if r != no_row then r
  else begin
    let fresh = Array.make row_pages null_page in
    t.dir_words <- t.dir_words + row_pages + 1;
    let len = Array.length t.rows in
    if len = 0 then begin
      t.rows <- Array.make 16 no_row;
      t.dir_words <- t.dir_words + 17;
      t.row_base <- ri;
      t.rows.(0) <- fresh
    end
    else begin
      let lo = t.row_base and hi = t.row_base + len in
      if ri >= lo && ri < hi then t.rows.(ri - lo) <- fresh
      else begin
        let new_lo = min lo ri and new_hi = max hi (ri + 1) in
        let span = new_hi - new_lo in
        if span > max_window_rows then begin
          Hashtbl.replace t.spill ri fresh;
          t.spill_rows <- t.spill_rows + 1;
          t.dir_words <- t.dir_words + 4 (* rough per-binding overhead *)
        end
        else begin
          let cap = min max_window_rows (max (next_pow2 span) (2 * len)) in
          (* leave the slack on the side we are growing toward *)
          let base' = if ri < lo then max (new_hi - cap) new_lo else new_lo in
          let base' = max base' (new_hi - cap) in
          let grown = Array.make cap no_row in
          Array.blit t.rows 0 grown (lo - base') len;
          t.dir_words <- t.dir_words + (cap - len);
          t.rows <- grown;
          t.row_base <- base';
          grown.(ri - base') <- fresh
        end
      end
    end;
    t.mru_row_idx <- ri;
    t.mru_row <- fresh;
    fresh
  end

(* Page lookup; [null_page] when absent. *)
let[@inline] find_page t addr =
  t.lookups <- t.lookups + 1;
  let base = addr land lnot (t.block - 1) in
  if t.mru.p_base = base then begin
    t.mru_hits <- t.mru_hits + 1;
    t.mru
  end
  else begin
    let r = row_for t (row_of t addr) in
    if r == no_row then null_page
    else begin
      let p = r.(page_slot t addr) in
      if p != null_page then t.mru <- p;
      p
    end
  end

(* ------------------------------------------------------------------ *)
(* Page lifecycle                                                     *)

let alloc_slots t nslots =
  if nslots = t.block then (
    match t.pool_byte with
    | a :: rest ->
      t.pool_byte <- rest;
      t.pool_byte_n <- t.pool_byte_n - 1;
      t.page_recycles <- t.page_recycles + 1;
      a
    | [] ->
      t.page_allocs <- t.page_allocs + 1;
      Array.make nslots empty)
  else
    match t.pool_init with
    | a :: rest when Array.length a = nslots ->
      t.pool_init <- rest;
      t.pool_init_n <- t.pool_init_n - 1;
      t.page_recycles <- t.page_recycles + 1;
      a
    | _ ->
      t.page_allocs <- t.page_allocs + 1;
      Array.make nslots empty

(* Park an all-[empty] slot array in the free list. *)
let pool_slots t a =
  if Array.length a = t.block then begin
    if t.pool_byte_n < pool_cap then begin
      t.pool_byte <- a :: t.pool_byte;
      t.pool_byte_n <- t.pool_byte_n + 1
    end
  end
  else if t.pool_init_n < pool_cap then begin
    t.pool_init <- a :: t.pool_init;
    t.pool_init_n <- t.pool_init_n + 1
  end

let make_page ?gran t addr =
  let g = match gran with Some g -> g | None -> default_gran t addr in
  let nslots = t.block / g in
  let p =
    { p_base = base_of t addr; slot_bytes = g; shift = log2 g;
      slots = alloc_slots t nslots; used = 0 }
  in
  let r = ensure_row t (row_of t addr) in
  r.(page_slot t addr) <- p;
  t.mru <- p;
  t.pages_live <- t.pages_live + 1;
  account_delta t (page_bytes nslots);
  p

let drop_page t p =
  let r = row_for t (row_of t p.p_base) in
  r.(page_slot t p.p_base) <- null_page;
  if t.mru == p then t.mru <- null_page;
  t.pages_live <- t.pages_live - 1;
  account_delta t (-page_bytes (Array.length p.slots));
  (* used = 0 here, so the array is all-empty: safe to recycle *)
  pool_slots t p.slots;
  p.slots <- [||]

(* Rebuild a page with byte slots; every byte inherits its word's
   pointer. *)
let expand t p =
  let old = p.slots and oldg = p.slot_bytes in
  let slots = alloc_slots t t.block in
  Array.iteri
    (fun i v ->
      if v != empty then
        for j = i * oldg to ((i + 1) * oldg) - 1 do
          slots.(j) <- v
        done)
    old;
  account_delta t (page_bytes t.block - page_bytes (Array.length old));
  p.slots <- slots;
  p.used <- p.used * oldg;
  p.slot_bytes <- 1;
  p.shift <- 0;
  t.expansions <- t.expansions + 1;
  Array.fill old 0 (Array.length old) empty;
  pool_slots t old

let[@inline] slot_index p addr = (addr - p.p_base) lsr p.shift

(* ------------------------------------------------------------------ *)
(* Point operations                                                   *)

let[@inline] ensure_granularity t ~addr ~size =
  match t.tmode with
  | Fixed_bytes _ -> ()
  | Adaptive ->
    let sub_word = size < 4 || addr land 3 <> 0 in
    if sub_word then begin
      let a = ref addr in
      let hi = addr + size in
      while !a < hi do
        (let p = find_page t !a in
         if p == null_page then ignore (make_page ~gran:1 t !a : page)
         else if p.slot_bytes > 1 then expand t p);
        a := base_of t !a + t.block
      done
    end

let slot_bounds t addr =
  let p = find_page t addr in
  let g = if p == null_page then default_gran t addr else p.slot_bytes in
  let lo = addr land lnot (g - 1) in
  (lo, lo + g)

let[@inline] find t addr ~absent =
  let p = find_page t addr in
  if p == null_page then absent
  else
    let v = p.slots.(slot_index p addr) in
    if v == empty then absent else Obj.obj v

let set t addr v =
  let p =
    match find_page t addr with
    | p when p != null_page -> p
    | _ -> make_page t addr
  in
  (* keep the stored width honest for unaligned addresses — same
     predicate as ensure_granularity *)
  (match t.tmode with
  | Adaptive when p.slot_bytes > 1 && addr land 3 <> 0 -> expand t p
  | _ -> ());
  let i = slot_index p addr in
  if p.slots.(i) == empty then p.used <- p.used + 1;
  p.slots.(i) <- Obj.repr v

(* ------------------------------------------------------------------ *)
(* Range operations                                                   *)

(* Adaptive contract: ranges are byte-exact.  A boundary that falls
   inside a word slot refines that page to byte slots first —
   unconditionally when stamping, and only when the cut slot is
   occupied when clearing (cutting through an empty slot loses
   nothing).  Fixed mode keeps slot-cover semantics: the slot is the
   atomic unit and boundaries widen outward to it, because detectors
   free whole allocations, which need not be slot multiples. *)
let refine_boundary t b ~for_set =
  match t.tmode with
  | Fixed_bytes _ -> ()
  | Adaptive ->
    if b land 3 <> 0 then begin
      let p = find_page t b in
      if p == null_page then begin
        if for_set then ignore (make_page ~gran:1 t b : page)
      end
      else if
        p.slot_bytes > 1 && (for_set || p.slots.(slot_index p b) != empty)
      then expand t p
    end

let set_range t ~lo ~hi v =
  if hi > lo then begin
    refine_boundary t lo ~for_set:true;
    refine_boundary t hi ~for_set:true;
    let box = Obj.repr v in
    let a = ref lo in
    while !a < hi do
      let p =
        match find_page t !a with
        | p when p != null_page -> p
        | _ -> make_page t !a
      in
      let upper = min hi (p.p_base + t.block) in
      let i0 = slot_index p !a and i1 = slot_index p (upper - 1) in
      for i = i0 to i1 do
        if p.slots.(i) == empty then p.used <- p.used + 1;
        p.slots.(i) <- box
      done;
      a := p.p_base + t.block
    done
  end

let remove_range t ~lo ~hi =
  if hi > lo then begin
    refine_boundary t lo ~for_set:false;
    refine_boundary t hi ~for_set:false;
    let a = ref lo in
    while !a < hi do
      let p = find_page t !a in
      if p == null_page then a := base_of t !a + t.block
      else begin
        let upper = min hi (p.p_base + t.block) in
        let i0 = slot_index p !a and i1 = slot_index p (upper - 1) in
        for i = i0 to i1 do
          if p.slots.(i) != empty then begin
            p.slots.(i) <- empty;
            p.used <- p.used - 1
          end
        done;
        let next = p.p_base + t.block in
        if p.used = 0 then drop_page t p;
        a := next
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Bounded neighbour scans                                            *)

(* Both scans examine exactly [scan_limit] slots beyond the slot
   containing [addr], crossing page boundaries as needed.  An absent
   page contributes virtual empty slots at the initial width, so a
   released neighbour and a never-touched one answer identically —
   the dynamic detector's sharing decisions depend on that.

   Every walker below is a top-level function taking its context as
   arguments: a local [let rec] would close over that context and
   allocate a closure per call, and these run several times on every
   analysed access.  Results come back as the value (or the caller's
   [absent]) with the slot bounds stashed in [found_lo]/[found_hi],
   never as a tuple or an option. *)
let scan_limit = 4

let[@inline] found t p i =
  let lo = p.p_base + (i lsl p.shift) in
  t.found_lo <- lo;
  t.found_hi <- lo + p.slot_bytes;
  Obj.obj p.slots.(i)

(* Index of the last occupied slot in [stop, i], or -1. *)
let rec look_back p i stop =
  if i < stop then -1
  else if p.slots.(i) != empty then i
  else look_back p (i - 1) stop

(* Index of the first occupied slot in [i, stop], or -1. *)
let rec look_fwd p i stop =
  if i > stop then -1
  else if p.slots.(i) != empty then i
  else look_fwd p (i + 1) stop

let rec scan_back t w a remaining absent =
  if remaining <= 0 || a < 0 then absent
  else
    let p = find_page t a in
    if p == null_page then begin
      let base = base_of t a in
      let nslots = ((a - base) / w) + 1 in
      if nslots >= remaining then absent
      else scan_back t w (base - 1) (remaining - nslots) absent
    end
    else begin
      let i = slot_index p a in
      let stop = max 0 (i - remaining + 1) in
      let j = look_back p i stop in
      if j >= 0 then found t p j
      else if stop = 0 then
        scan_back t w (p.p_base - 1) (remaining - (i + 1)) absent
      else absent
    end

let rec scan_fwd t w a remaining absent =
  if remaining <= 0 then absent
  else
    let p = find_page t a in
    if p == null_page then begin
      let base = base_of t a in
      let nslots = (base + t.block - a) / w in
      if nslots >= remaining then absent
      else scan_fwd t w (base + t.block) (remaining - nslots) absent
    end
    else begin
      let i = slot_index p a in
      let n = Array.length p.slots in
      let stop = min (n - 1) (i + remaining - 1) in
      let j = look_fwd p i stop in
      if j >= 0 then found t p j
      else if stop = n - 1 then
        scan_fwd t w (p.p_base + t.block) (remaining - (stop - i + 1)) absent
      else absent
    end

(* Width of the slot containing [addr]: the page's granularity, or the
   one a fresh page would get (same rule as [slot_bounds]). *)
let[@inline] slot_width t addr =
  let p = find_page t addr in
  if p == null_page then default_gran t addr else p.slot_bytes

let prev_neighbor t addr ~absent =
  let slo = addr land lnot (slot_width t addr - 1) in
  scan_back t (initial_width t.tmode) (slo - 1) scan_limit absent

let next_neighbor t addr ~absent =
  let g = slot_width t addr in
  let shi = (addr land lnot (g - 1)) + g in
  scan_fwd t (initial_width t.tmode) shi scan_limit absent

let[@inline] found_lo t = t.found_lo
let[@inline] found_hi t = t.found_hi

(* ------------------------------------------------------------------ *)
(* Group walk                                                         *)

(* Maximal run of consecutive slots starting at [addr]'s slot that
   all hold the same value (physical equality; the sentinel groups
   with itself, so an untouched run groups as [absent]), clipped to
   the first slot boundary at or after [hi].  One page lookup per
   block; [cur] is always slot-aligned.  [group_walk] returns the
   group's end. *)
let round_up a g = (a + g - 1) land lnot (g - 1)

let rec group_walk t v hi cur =
  if cur >= hi then cur
  else
    let p = find_page t cur in
    if p == null_page then begin
      if v != empty then cur
      else
        let block_hi = base_of t cur + t.block in
        if block_hi >= hi then round_up hi (initial_width t.tmode)
        else group_walk t v hi block_hi
    end
    else group_slots t p v hi (p.p_base + t.block) cur

and group_slots t p v hi block_hi cur =
  if cur >= hi then round_up cur p.slot_bytes
  else if cur >= block_hi then group_walk t v hi cur
  else if p.slots.(slot_index p cur) == v then
    group_slots t p v hi block_hi (cur + p.slot_bytes)
  else cur

let[@inline] group t addr ~hi ~absent =
  let start = find_page t addr in
  let g0 =
    if start == null_page then initial_width t.tmode else start.slot_bytes
  in
  let glo = addr land lnot (g0 - 1) in
  let v =
    if start == null_page then empty else start.slots.(slot_index start addr)
  in
  let ghi = group_walk t v hi (glo + g0) in
  t.found_lo <- glo;
  t.found_hi <- max ghi (glo + g0);
  if v == empty then absent else Obj.obj v

(* ------------------------------------------------------------------ *)
(* Iteration and accounting                                           *)

let iter_page f p =
  let n = Array.length p.slots in
  for i = 0 to n - 1 do
    let v = p.slots.(i) in
    if v != empty then begin
      let lo = p.p_base + (i * p.slot_bytes) in
      f lo (lo + p.slot_bytes) (Obj.obj v)
    end
  done

let iter f t =
  let do_row r = Array.iter (fun p -> if p != null_page then iter_page f p) r in
  Array.iter (fun r -> if r != no_row then do_row r) t.rows;
  Hashtbl.iter (fun _ r -> do_row r) t.spill

let iter_range f t ~lo ~hi =
  if hi > lo then begin
    let a = ref lo in
    while !a < hi do
      let p = find_page t !a in
      if p == null_page then a := base_of t !a + t.block
      else begin
        let upper = min hi (p.p_base + t.block) in
        let i0 = slot_index p !a and i1 = slot_index p (upper - 1) in
        for i = i0 to i1 do
          let v = p.slots.(i) in
          if v != empty then begin
            let slo = p.p_base + (i * p.slot_bytes) in
            f slo (slo + p.slot_bytes) (Obj.obj v)
          end
        done;
        a := p.p_base + t.block
      end
    done
  end

let entry_count t = t.pages_live
let bytes t = t.bytes

let stats t =
  {
    pages_live = t.pages_live;
    pages_pooled = t.pool_init_n + t.pool_byte_n;
    page_allocs = t.page_allocs;
    page_recycles = t.page_recycles;
    expansions = t.expansions;
    lookups = t.lookups;
    mru_hits = t.mru_hits;
    dir_bytes = 8 * t.dir_words;
  }
