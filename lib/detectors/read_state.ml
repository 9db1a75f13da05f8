open Dgrace_vclock

(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = No_reads | Ep of Epoch.t | Vc of Vc_intern.snap

let[@inline] is_empty = function No_reads -> true | Ep _ | Vc _ -> false

let equal a b =
  match (a, b) with
  | No_reads, No_reads -> true
  | Ep e1, Ep e2 -> Epoch.equal e1 e2
  | Vc s1, Vc s2 -> Vc_intern.equal s1 s2
  | (No_reads | Ep _ | Vc _), _ -> false

let[@inline] leq r tvc =
  match r with
  | No_reads -> true
  | Ep e -> Vector_clock.epoch_leq e tvc
  | Vc s -> Vc_intern.leq_clock s tvc

let[@inline] same_epoch r e =
  match r with Ep e' -> Epoch.equal e e' | No_reads | Vc _ -> false

let[@inline] update ~intern r ~tid ~tvc =
  let here = Epoch.make ~tid ~clock:(Vector_clock.get tvc tid) in
  match r with
  | No_reads -> Ep here
  | Ep e ->
    if Vector_clock.epoch_leq e tvc then Ep here
    else begin
      (* read-shared: inflate to a snapshot holding both reads, staged
         through the arena's pooled scratch clock — no allocation on
         the hot path *)
      let v = Vc_intern.scratch intern in
      Vector_clock.reset v;
      Vector_clock.set v (Epoch.tid e) (Epoch.clock e);
      Vector_clock.set v tid (Epoch.clock here);
      Vc (Vc_intern.intern intern v)
    end
  | Vc s ->
    let s' = Vc_intern.with_component s ~tid ~clock:(Epoch.clock here) in
    Vc_intern.release s;
    Vc s'

let release = function
  | No_reads | Ep _ -> ()
  | Vc s -> Vc_intern.release s

let bytes = function
  | No_reads | Ep _ -> 0
  | Vc s -> Vc_intern.snap_bytes s

let pp ppf = function
  | No_reads -> Format.pp_print_string ppf "r:-"
  | Ep e -> Format.fprintf ppf "r:%a" Epoch.pp e
  | Vc s -> Format.fprintf ppf "r:%a" Vector_clock.pp (Vc_intern.to_clock s)
