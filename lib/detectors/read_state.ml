open Dgrace_vclock

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* One word, three states.  An immediate is either [empty] (-1) or the
   epoch of the last read; an epoch is negative only past clock 2^52,
   so the two cannot meet.  A heap block is the interned read-shared
   snapshot.  Only the snapshot state is a block: a read that stays an
   epoch allocates nothing, and testing it loads nothing. *)
type t = Obj.t

let empty : t = Obj.repr (-1)

let[@inline] is_vc (r : t) = Obj.is_block r
let[@inline] is_empty (r : t) = r == empty
let[@inline] of_epoch (e : Epoch.t) : t = Obj.repr e
let[@inline] of_snap (s : Vc_intern.snap) : t = Obj.repr s

let epoch r =
  if is_vc r then invalid_arg "Read_state.epoch: read-shared state"
  else if is_empty r then Epoch.none
  else (Obj.obj r : Epoch.t)

let snap r =
  if is_vc r then (Obj.obj r : Vc_intern.snap)
  else invalid_arg "Read_state.snap: not read-shared"

let equal a b =
  if is_vc a then is_vc b && Vc_intern.equal (Obj.obj a) (Obj.obj b)
  else a == b

(* [empty] is [-1]: as an epoch it has clock [max_int lsr tid_bits],
   which no clock reaches, so it needs its own test. *)
let[@inline] leq r tvc =
  if is_vc r then Vc_intern.leq_clock (Obj.obj r) tvc
  else is_empty r || Vector_clock.epoch_leq (Obj.obj r) tvc

let[@inline] same_epoch r (e : Epoch.t) = r == Obj.repr e

let[@inline] update ~intern r ~tid ~tvc =
  let here = Epoch.make ~tid ~clock:(Vector_clock.get tvc tid) in
  if is_vc r then begin
    let s = (Obj.obj r : Vc_intern.snap) in
    let s' = Vc_intern.with_component s ~tid ~clock:(Epoch.clock here) in
    Vc_intern.release s;
    of_snap s'
  end
  else if is_empty r then of_epoch here
  else begin
    let e : Epoch.t = Obj.obj r in
    if Vector_clock.epoch_leq e tvc then of_epoch here
    else begin
      (* read-shared: inflate to a snapshot holding both reads, staged
         through the arena's pooled scratch clock — no allocation on
         the hot path *)
      let v = Vc_intern.scratch intern in
      Vector_clock.reset v;
      Vector_clock.set v (Epoch.tid e) (Epoch.clock e);
      Vector_clock.set v tid (Epoch.clock here);
      of_snap (Vc_intern.intern intern v)
    end
  end

let release r = if is_vc r then Vc_intern.release (Obj.obj r)

let retain r =
  if is_vc r then Vc_intern.retain (Obj.obj r);
  r

let bytes r = if is_vc r then Vc_intern.snap_bytes (Obj.obj r) else 0

let pp ppf r =
  if is_vc r then
    Format.fprintf ppf "r:%a" Vector_clock.pp (Vc_intern.to_clock (Obj.obj r))
  else if is_empty r then Format.pp_print_string ppf "r:-"
  else Format.fprintf ppf "r:%a" Epoch.pp (Obj.obj r)
