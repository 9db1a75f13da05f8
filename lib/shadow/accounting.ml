(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = {
  mutable hash : int;
  mutable vc : int;
  mutable bitmap : int;
  mutable peak_total : int;
  mutable peak_hash : int;
  mutable peak_vc : int;
  mutable peak_bitmap : int;
  mutable live_vcs : int;
  mutable peak_vcs : int;
  mutable created_vcs : int;
  mutable bound_locations : int;
  mutable interned : int;
  mutable peak_interned : int;
}

let create () =
  {
    hash = 0;
    vc = 0;
    bitmap = 0;
    peak_total = 0;
    peak_hash = 0;
    peak_vc = 0;
    peak_bitmap = 0;
    live_vcs = 0;
    peak_vcs = 0;
    created_vcs = 0;
    bound_locations = 0;
    interned = 0;
    peak_interned = 0;
  }

let update_peaks t =
  let total = t.hash + t.vc + t.bitmap in
  if total > t.peak_total then t.peak_total <- total;
  if t.hash > t.peak_hash then t.peak_hash <- t.hash;
  if t.vc > t.peak_vc then t.peak_vc <- t.vc;
  if t.bitmap > t.peak_bitmap then t.peak_bitmap <- t.bitmap

let[@inline] add_hash t d = t.hash <- t.hash + d; update_peaks t
let[@inline] add_vc t d = t.vc <- t.vc + d; update_peaks t
let[@inline] add_bitmap t d = t.bitmap <- t.bitmap + d; update_peaks t

(* the interned axis annotates how much of [vc] is deduplicated
   snapshot storage; it is not a fourth factor of [current_bytes] *)
let[@inline] add_interned t d =
  t.interned <- t.interned + d;
  if t.interned > t.peak_interned then t.peak_interned <- t.interned

let[@inline] vc_created t =
  t.live_vcs <- t.live_vcs + 1;
  t.created_vcs <- t.created_vcs + 1;
  if t.live_vcs > t.peak_vcs then t.peak_vcs <- t.live_vcs

let[@inline] vc_freed t = t.live_vcs <- t.live_vcs - 1
let[@inline] bind_locations t n = t.bound_locations <- t.bound_locations + n

let hash_bytes t = t.hash
let vc_bytes t = t.vc
let bitmap_bytes t = t.bitmap
let current_bytes t = t.hash + t.vc + t.bitmap
let peak_bytes t = t.peak_total
let peak_hash_bytes t = t.peak_hash
let peak_vc_bytes t = t.peak_vc
let peak_bitmap_bytes t = t.peak_bitmap
let peak_interned_bytes t = t.peak_interned
let live_vcs t = t.live_vcs
let peak_vcs t = t.peak_vcs
let total_vcs_created t = t.created_vcs

let avg_sharing t =
  if t.created_vcs = 0 then 1.0
  else float_of_int t.bound_locations /. float_of_int t.created_vcs

let reset t =
  t.hash <- 0;
  t.vc <- 0;
  t.bitmap <- 0;
  t.peak_total <- 0;
  t.peak_hash <- 0;
  t.peak_vc <- 0;
  t.peak_bitmap <- 0;
  t.live_vcs <- 0;
  t.peak_vcs <- 0;
  t.created_vcs <- 0;
  t.bound_locations <- 0;
  t.interned <- 0;
  t.peak_interned <- 0
