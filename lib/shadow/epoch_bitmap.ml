(* Same flat two-level directory as Shadow_table, specialised to
   fixed-size bitmap chunks (2 bits per address: read and write
   plane).  The directory persists across epochs: [reset] detaches
   the live chunks, zeroes them into a small pool, and the next epoch
   re-populates the same rows without re-hashing or re-allocating —
   the epoch cadence (every release/fork/join) is exactly the churn a
   free list pays off.

   Accounting counts live chunks only ([chunk_bytes + 16] each, the
   same charge the old hash-backed version used, so Table 2's bitmap
   column is unchanged); after [reset] the footprint reads zero.
   Directory overhead is exposed through [stats]. *)

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = {
  block : int;  (* addresses covered per chunk *)
  block_bits : int;
  account : Accounting.t option;
  mutable bytes : int;
  (* two-level directory of chunks *)
  mutable row_base : int;
  mutable rows : Bytes.t array array;
  spill : (int, Bytes.t array) Hashtbl.t;
  mutable spill_rows : int;
  (* one-chunk cache: accesses cluster heavily *)
  mutable cached_base : int;
  mutable cached_chunk : Bytes.t;
  (* live chunk indices, for O(live) reset: a stack in [live.(0 ..
     live_n - 1)], grown by doubling *)
  mutable live : int array;
  mutable live_n : int;
  (* zeroed chunks ready for reuse: a stack in [pool.(0 .. pool_n - 1)].
     Both stacks are arrays so the epoch cadence conses nothing. *)
  pool : Bytes.t array;
  mutable pool_n : int;
  (* stats *)
  mutable chunk_allocs : int;
  mutable chunk_recycles : int;
  mutable resets : int;
  mutable dir_words : int;
}

(* 256 chunk pointers per row; with the default 1 KiB chunk coverage a
   row spans 256 KiB of address space. *)
let row_bits = 8
let row_chunks = 1 lsl row_bits
let max_window_rows = 1 lsl 16
let pool_cap = 64
let no_chunk = Bytes.empty
let no_row : Bytes.t array = [||]

type stats = {
  chunks_live : int;
  chunks_pooled : int;
  chunk_allocs : int;
  chunk_recycles : int;
  resets : int;
  dir_bytes : int;
}

let log2 n =
  let rec go i n = if n <= 1 then i else go (i + 1) (n lsr 1) in
  go 0 n

let create ?(block = 1024) ?account () =
  if block <= 0 || block land (block - 1) <> 0 then
    invalid_arg "Epoch_bitmap.create: block not a power of two";
  {
    block;
    block_bits = log2 block;
    account;
    bytes = 0;
    row_base = 0;
    rows = [||];
    spill = Hashtbl.create 8;
    spill_rows = 0;
    cached_base = min_int;
    cached_chunk = no_chunk;
    live = Array.make 16 0;
    live_n = 0;
    pool = Array.make pool_cap no_chunk;
    pool_n = 0;
    chunk_allocs = 0;
    chunk_recycles = 0;
    resets = 0;
    dir_words = 0;
  }

let account_delta t d =
  t.bytes <- t.bytes + d;
  match t.account with Some a -> Accounting.add_bitmap a d | None -> ()

(* 2 bits per address: bit 0 = read plane, bit 1 = write plane *)
let chunk_bytes t = t.block / 4

let row_of t addr = addr asr (t.block_bits + row_bits)
let row_slot t addr = (addr asr t.block_bits) land (row_chunks - 1)

let[@inline] row_for t ri =
  let i = ri - t.row_base in
  if i >= 0 && i < Array.length t.rows then t.rows.(i)
  else if t.spill_rows = 0 then no_row
  else match Hashtbl.find_opt t.spill ri with Some r -> r | None -> no_row

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let ensure_row t ri =
  let r = row_for t ri in
  if r != no_row then r
  else begin
    let fresh = Array.make row_chunks no_chunk in
    t.dir_words <- t.dir_words + row_chunks + 1;
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
          t.dir_words <- t.dir_words + 4
        end
        else begin
          let cap = min max_window_rows (max (next_pow2 span) (2 * len)) in
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
    fresh
  end

let[@inline] chunk t addr =
  let base = addr land lnot (t.block - 1) in
  if base = t.cached_base then t.cached_chunk
  else begin
    let r = ensure_row t (row_of t addr) in
    let s = row_slot t addr in
    let c = r.(s) in
    let c =
      if c != no_chunk then c
      else begin
        let c =
          if t.pool_n > 0 then begin
            t.pool_n <- t.pool_n - 1;
            let c = t.pool.(t.pool_n) in
            t.pool.(t.pool_n) <- no_chunk;
            t.chunk_recycles <- t.chunk_recycles + 1;
            c
          end
          else begin
            t.chunk_allocs <- t.chunk_allocs + 1;
            Bytes.make (chunk_bytes t) '\000'
          end
        in
        r.(s) <- c;
        if t.live_n = Array.length t.live then begin
          let grown = Array.make (2 * t.live_n) 0 in
          Array.blit t.live 0 grown 0 t.live_n;
          t.live <- grown
        end;
        t.live.(t.live_n) <- addr asr t.block_bits;
        t.live_n <- t.live_n + 1;
        account_delta t (chunk_bytes t + 16);
        c
      end
    in
    t.cached_base <- base;
    t.cached_chunk <- c;
    c
  end

let plane_bit write = if write then 2 else 1

(* [b] and [m] are bytes, so [b lor m] is at most 255. *)
let[@inline] orset c i m =
  let b = Char.code (Bytes.get c i) in
  if b lor m <> b then Bytes.set c i (Char.unsafe_chr (b lor m))

(* Marking can cover whole shared granules, so it works on the chunk
   in bulk rather than per address: partial bytes at the two ends of
   the range, and the body a 64-bit word (32 addresses) at a time, with
   single bytes only to reach the first word boundary and after the
   last.  Every byte of the body gets the same plane pattern, so the
   word's byte order does not matter. *)
let word_pattern write =
  if write then 0xAAAA_AAAA_AAAA_AAAAL else 0x5555_5555_5555_5555L

let[@inline] fill_body c ~byte_lo ~byte_hi ~pattern ~wpattern =
  let i = ref byte_lo in
  while !i < byte_hi && !i land 7 <> 0 do
    orset c !i pattern;
    incr i
  done;
  while !i + 8 <= byte_hi do
    Bytes.set_int64_ne c !i (Int64.logor (Bytes.get_int64_ne c !i) wpattern);
    i := !i + 8
  done;
  while !i < byte_hi do
    orset c !i pattern;
    incr i
  done

let[@inline] mark t ~write ~lo ~hi =
  let bit = plane_bit write in
  let pattern = bit * 0x55 in
  let wpattern = word_pattern write in
  let addr = ref lo in
  while !addr < hi do
    let base = !addr land lnot (t.block - 1) in
    let c = chunk t !addr in
    let upper = min hi (base + t.block) in
    let off0 = !addr - base and off1 = upper - base in
    let head_end = min off1 ((off0 + 3) land lnot 3) in
    for o = off0 to head_end - 1 do
      orset c (o lsr 2) (bit lsl ((o land 3) * 2))
    done;
    let body_end = off1 land lnot 3 in
    if body_end > head_end then
      fill_body c ~byte_lo:(head_end lsr 2) ~byte_hi:(body_end lsr 2) ~pattern
        ~wpattern;
    for o = max body_end head_end to off1 - 1 do
      orset c (o lsr 2) (bit lsl ((o land 3) * 2))
    done;
    addr := upper
  done

(* The chunk holding [addr] for a probe, [no_chunk] if none: a probe
   never allocates. *)
let[@inline] probe_chunk t addr =
  let base = addr land lnot (t.block - 1) in
  if base = t.cached_base then t.cached_chunk
  else begin
    let r = row_for t (row_of t addr) in
    if r == no_row then no_chunk else r.(row_slot t addr)
  end

(* Whole bytes [i, j) of [c] all carry the plane [pattern]. *)
let rec bytes_covered c pattern i j =
  i >= j
  || (Char.code (Bytes.unsafe_get c i) land pattern = pattern
      && bytes_covered c pattern (i + 1) j)

(* Every address of chunk offsets [o0, o1] (inclusive) has its bit in
   the plane [pattern]: one mask test per bitmap byte, the first and
   last masked down to the addresses they hold. *)
let[@inline] covered c pattern o0 o1 =
  let i0 = o0 lsr 2 and i1 = o1 lsr 2 in
  let first = pattern land (0xff lsl ((o0 land 3) * 2)) in
  let last = pattern land (0xff lsr ((3 - (o1 land 3)) * 2)) in
  if i0 = i1 then begin
    let m = first land last in
    Char.code (Bytes.unsafe_get c i0) land m = m
  end
  else
    Char.code (Bytes.unsafe_get c i0) land first = first
    && Char.code (Bytes.unsafe_get c i1) land last = last
    && bytes_covered c pattern (i0 + 1) i1

(* A probe that straddles chunks: chunk by chunk. *)
let rec test_chunks t pattern lo hi =
  let base = lo land lnot (t.block - 1) in
  let c = probe_chunk t lo in
  c != no_chunk
  &&
  let upper = min hi (base + t.block - 1) in
  covered c pattern (lo - base) (upper - base)
  && (upper = hi || test_chunks t pattern (upper + 1) hi)

(* The whole-access probe: every address of [lo, hi] (inclusive), not
   only the two ends — an access is same-epoch only if all its bytes
   were analysed this epoch.  An access inside one chunk (any access
   up to the block size that does not straddle a boundary) takes a
   single chunk fetch and a mask test per byte of 4 addresses. *)
let[@inline] test_range t ~write ~lo ~hi =
  let pattern = plane_bit write * 0x55 in
  let base = lo land lnot (t.block - 1) in
  if hi land lnot (t.block - 1) <> base then test_chunks t pattern lo hi
  else begin
    let c = probe_chunk t lo in
    c != no_chunk && covered c pattern (lo - base) (hi - base)
  end

let[@inline] test t ~write addr = test_range t ~write ~lo:addr ~hi:addr

(* Epoch boundary: detach every live chunk from its row, zero it into
   the pool, and charge the footprint back down to zero.  The rows
   themselves stay, so the next epoch's marks pay no directory or
   allocation cost. *)
let reset t =
  for k = t.live_n - 1 downto 0 do
    let ci = t.live.(k) in
    let r = row_for t (ci asr row_bits) in
    let s = ci land (row_chunks - 1) in
    let c = r.(s) in
    if c != no_chunk then begin
      r.(s) <- no_chunk;
      if t.pool_n < pool_cap then begin
        Bytes.fill c 0 (Bytes.length c) '\000';
        t.pool.(t.pool_n) <- c;
        t.pool_n <- t.pool_n + 1
      end
    end
  done;
  account_delta t (-t.live_n * (chunk_bytes t + 16));
  t.live_n <- 0;
  t.resets <- t.resets + 1;
  t.cached_base <- min_int;
  t.cached_chunk <- no_chunk

let bytes t = t.bytes

let stats t =
  {
    chunks_live = t.live_n;
    chunks_pooled = t.pool_n;
    chunk_allocs = t.chunk_allocs;
    chunk_recycles = t.chunk_recycles;
    resets = t.resets;
    dir_bytes = 8 * t.dir_words;
  }
